//! The travel middle tier: the application logic of the paper's demo
//! web site.
//!
//! Every coordination feature of Section 3.1 is implemented by
//! *generating entangled SQL* and submitting it through the full
//! pipeline (parse → compile → safety → register → match → apply), so
//! this service exercises the system exactly the way the demo's
//! three-tier application does. Side effects (seat and room inventory)
//! run inside the match's transaction via the coordinator's apply hook.

use std::sync::Arc;

use parking_lot::Mutex;

use youtopia_core::{
    CoordinationFuture, CoordinationOutcome, Coordinator, CoordinatorConfig, GroupMatch,
    MatchNotification, QueryId, RecoveryReport, ShardedCoordinator, Submission, SystemClock,
};
use youtopia_exec::{run_sql, StatementOutcome};
use youtopia_storage::{Database, StorageError, Tuple, Value, Wal};

use crate::error::{TravelError, TravelResult};
use crate::model::{self, sql_str, Flight};
use crate::notify::Notifier;
use crate::social::SocialGraph;

/// Outcome of a booking / coordination request.
#[derive(Debug)]
pub enum BookingOutcome {
    /// The request was satisfied immediately; these are the caller's
    /// answers, one `(answer relation, tuple)` per head.
    Confirmed(Vec<(String, Tuple)>),
    /// The request waits for coordination partners; the id can be used
    /// to cancel.
    Waiting(QueryId),
}

impl BookingOutcome {
    /// True when confirmed.
    pub fn is_confirmed(&self) -> bool {
        matches!(self, BookingOutcome::Confirmed(_))
    }
}

/// Optional constraints for flight requests (the demo UI's date and
/// price fields).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlightPrefs {
    /// Required travel day.
    pub day: Option<i64>,
    /// Maximum acceptable price.
    pub max_price: Option<f64>,
}

/// A user's account view (the demo's "pending or confirmed
/// reservations" page).
#[derive(Debug, Clone, PartialEq)]
pub struct AccountView {
    /// Confirmed flight reservations (flight numbers).
    pub flights: Vec<i64>,
    /// Confirmed hotel reservations (hotel ids).
    pub hotels: Vec<i64>,
    /// Ids of this user's still-pending coordination requests.
    pub pending: Vec<QueryId>,
}

/// The travel web site's middle tier.
pub struct TravelService {
    db: Database,
    /// One shard ([`Coordinator`]): the demo site is a single serial
    /// coordination component, on the same type the net server uses.
    coordinator: Arc<ShardedCoordinator>,
    social: SocialGraph,
    notifier: Arc<Notifier>,
    /// Futures of pending submissions, polled by `deliver_ready`.
    waiting: Mutex<Vec<(String, CoordinationFuture)>>,
}

impl TravelService {
    /// Builds the full demo stack: fresh database, schema, seed data,
    /// coordinator with inventory hook.
    pub fn bootstrap_demo() -> TravelResult<TravelService> {
        let db = Database::new();
        model::install_schema(&db)?;
        model::seed_demo_data(&db)?;
        Self::over(db)
    }

    /// Wraps an existing database that already has the travel schema.
    pub fn over(db: Database) -> TravelResult<TravelService> {
        let coordinator: Arc<ShardedCoordinator> = Arc::new(Coordinator::new(db.clone()).into());
        coordinator.set_apply_hook(Arc::new(inventory_hook));
        Ok(TravelService {
            social: SocialGraph::new(db.clone()),
            db,
            coordinator,
            notifier: Arc::new(Notifier::new()),
            waiting: Mutex::new(Vec::new()),
        })
    }

    /// Rebuilds the site from a durable WAL after a crash: database and
    /// coordination state replay, the inventory hook is installed before
    /// the recovery matching sweep, and the [`RecoveryReport`] — which
    /// the middle tier used to have no way to surface — is returned to
    /// the caller (hand it to
    /// [`crate::AdminConsole::set_recovery_report`] so the admin
    /// `recovery` command can render it).
    pub fn recover(
        wal: Wal,
        config: CoordinatorConfig,
    ) -> TravelResult<(TravelService, RecoveryReport)> {
        let (coordinator, report) = Coordinator::recover_with(
            wal,
            config,
            Some(Arc::new(inventory_hook)),
            Arc::new(SystemClock),
        )?;
        let db = coordinator.db().clone();
        let service = TravelService {
            social: SocialGraph::new(db.clone()),
            db,
            coordinator: Arc::new(coordinator.into()),
            notifier: Arc::new(Notifier::new()),
            waiting: Mutex::new(Vec::new()),
        };
        Ok((service, report))
    }

    /// The social graph (friend import / listing).
    pub fn social(&self) -> &SocialGraph {
        &self.social
    }

    /// The notifier (users' mailboxes).
    pub fn notifier(&self) -> &Notifier {
        &self.notifier
    }

    /// The coordination component (for the admin interface).
    pub fn coordinator(&self) -> &Arc<ShardedCoordinator> {
        &self.coordinator
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    // ----------------------------------------------------------------- //
    // Search (the non-coordinating features of the site)
    // ----------------------------------------------------------------- //

    /// Flights to `dest`, optionally filtered, sorted by price.
    pub fn search_flights(&self, dest: &str, prefs: FlightPrefs) -> TravelResult<Vec<Flight>> {
        let mut sql = format!("SELECT * FROM Flights WHERE dest = {}", sql_str(dest));
        if let Some(day) = prefs.day {
            sql.push_str(&format!(" AND day = {day}"));
        }
        if let Some(p) = prefs.max_price {
            sql.push_str(&format!(" AND price <= {p}"));
        }
        sql.push_str(" ORDER BY price");
        let StatementOutcome::Rows(rs) = run_sql(&self.db, &sql)? else {
            unreachable!()
        };
        rs.rows.iter().map(Flight::from_tuple).collect()
    }

    /// The "browse flights and see your friends' bookings" view
    /// (the demo's Figure 4): which friends already hold a reservation
    /// on which flight.
    pub fn browse_friend_bookings(&self, user: &str) -> TravelResult<Vec<(String, i64)>> {
        let sql = format!(
            "SELECT r.traveler, r.fno FROM Reservation r \
             JOIN Friends f ON f.b = r.traveler \
             WHERE f.a = {} ORDER BY r.fno, r.traveler",
            sql_str(user)
        );
        let StatementOutcome::Rows(rs) = run_sql(&self.db, &sql)? else {
            unreachable!()
        };
        Ok(rs
            .rows
            .iter()
            .map(|r| {
                (
                    r.values()[0].as_str().unwrap_or_default().to_string(),
                    r.values()[1].as_int().unwrap_or_default(),
                )
            })
            .collect())
    }

    // ----------------------------------------------------------------- //
    // Bookings
    // ----------------------------------------------------------------- //

    /// Books a specific flight directly (no coordination). Internally a
    /// *self-contained* entangled query, so inventory accounting and the
    /// answer relation stay uniform.
    pub fn book_direct(&self, user: &str, fno: i64) -> TravelResult<Vec<(String, Tuple)>> {
        model::flight_by_fno(&self.db, fno)?; // NoSuchItem if absent
        let sql = format!(
            "SELECT {u}, fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE fno = {fno} AND seats > 0) CHOOSE 1",
            u = sql_str(user)
        );
        match self.submit(user, &sql)? {
            BookingOutcome::Confirmed(answers) => Ok(answers),
            BookingOutcome::Waiting(qid) => {
                // a direct booking that cannot ground means no seats;
                // withdraw it rather than leaving it parked
                self.coordinator.cancel(qid)?;
                Err(TravelError::SoldOut(format!("flight {fno}")))
            }
        }
    }

    /// "Book a flight with a friend" (§3.1, first scenario): same
    /// flight to `dest`, subject to `prefs`.
    pub fn coordinate_flight(
        &self,
        user: &str,
        friend: &str,
        dest: &str,
        prefs: FlightPrefs,
    ) -> TravelResult<BookingOutcome> {
        self.social.require_friends(user, friend)?;
        let sql = format!(
            "SELECT {u}, fno INTO ANSWER Reservation \
             WHERE fno IN ({flights}) \
             AND ({f}, fno) IN ANSWER Reservation CHOOSE 1",
            u = sql_str(user),
            f = sql_str(friend),
            flights = flight_domain(dest, prefs, 2),
        );
        self.submit(user, &sql)
    }

    /// The "adjacent seat" variant of scenario 1 (§3.1: "He can now
    /// specify that he wants to fly in an adjacent seat to Kramer, or
    /// just that he wants to travel on the same flight"). Both queries
    /// range over the free seat map; the adjacency condition is a
    /// residual filter relating *my* seat variable to the *partner's*
    /// seat variable, which flows in through the answer constraint.
    pub fn coordinate_adjacent_seats(
        &self,
        user: &str,
        friend: &str,
        dest: &str,
    ) -> TravelResult<BookingOutcome> {
        self.social.require_friends(user, friend)?;
        let sql = format!(
            "SELECT {u}, fno, seat INTO ANSWER SeatReservation \
             WHERE (fno, seat) IN (SELECT f.fno, s.seatno FROM Flights f \
                 JOIN Seats s ON f.fno = s.fno \
                 WHERE f.dest = {dest_lit} AND s.taken = FALSE) \
             AND ({f}, fno, fseat) IN ANSWER SeatReservation \
             AND (seat = fseat + 1 OR fseat = seat + 1) CHOOSE 1",
            u = sql_str(user),
            f = sql_str(friend),
            dest_lit = sql_str(dest),
        );
        self.submit(user, &sql)
    }

    /// "Book a flight and a hotel with a friend" (§3.1): one entangled
    /// query with constraints on both answer relations — all or
    /// nothing.
    pub fn coordinate_flight_and_hotel(
        &self,
        user: &str,
        friend: &str,
        dest: &str,
        prefs: FlightPrefs,
    ) -> TravelResult<BookingOutcome> {
        self.social.require_friends(user, friend)?;
        let sql = format!(
            "SELECT {u}, fno INTO ANSWER Reservation, {u}, hid INTO ANSWER HotelReservation \
             WHERE fno IN ({flights}) \
             AND hid IN (SELECT hid FROM Hotels WHERE city = {dest_lit} AND rooms >= 2) \
             AND ({f}, fno) IN ANSWER Reservation \
             AND ({f}, hid) IN ANSWER HotelReservation CHOOSE 1",
            u = sql_str(user),
            f = sql_str(friend),
            dest_lit = sql_str(dest),
            flights = flight_domain(dest, prefs, 2),
        );
        self.submit(user, &sql)
    }

    /// Group flight booking (§3.1): `user` plus `others` all on one
    /// flight. Every member must issue this request (with the rest of
    /// the group as `others`) for the group to close.
    pub fn coordinate_group_flight(
        &self,
        user: &str,
        others: &[&str],
        dest: &str,
        prefs: FlightPrefs,
    ) -> TravelResult<BookingOutcome> {
        for other in others {
            self.social.require_friends(user, other)?;
        }
        let group_size = others.len() + 1;
        let mut sql = format!(
            "SELECT {u}, fno INTO ANSWER Reservation WHERE fno IN ({flights})",
            u = sql_str(user),
            flights = flight_domain(dest, prefs, group_size as i64),
        );
        for other in others {
            sql.push_str(&format!(
                " AND ({o}, fno) IN ANSWER Reservation",
                o = sql_str(other)
            ));
        }
        sql.push_str(" CHOOSE 1");
        self.submit(user, &sql)
    }

    /// Group flight + hotel booking (§3.1).
    pub fn coordinate_group_flight_and_hotel(
        &self,
        user: &str,
        others: &[&str],
        dest: &str,
        prefs: FlightPrefs,
    ) -> TravelResult<BookingOutcome> {
        for other in others {
            self.social.require_friends(user, other)?;
        }
        let group_size = (others.len() + 1) as i64;
        let mut sql = format!(
            "SELECT {u}, fno INTO ANSWER Reservation, {u}, hid INTO ANSWER HotelReservation \
             WHERE fno IN ({flights}) \
             AND hid IN (SELECT hid FROM Hotels WHERE city = {dest_lit} AND rooms >= {group_size})",
            u = sql_str(user),
            dest_lit = sql_str(dest),
            flights = flight_domain(dest, prefs, group_size),
        );
        for other in others {
            sql.push_str(&format!(
                " AND ({o}, fno) IN ANSWER Reservation AND ({o}, hid) IN ANSWER HotelReservation",
                o = sql_str(other)
            ));
        }
        sql.push_str(" CHOOSE 1");
        self.submit(user, &sql)
    }

    /// Ad-hoc coordination (§3.1 last scenario): the caller provides
    /// the entangled SQL directly (the demo's SQL command line does the
    /// same).
    pub fn coordinate_custom(&self, user: &str, sql: &str) -> TravelResult<BookingOutcome> {
        self.submit(user, sql)
    }

    /// Cancels a pending request.
    pub fn cancel(&self, user: &str, qid: QueryId) -> TravelResult<()> {
        let _ = user;
        self.coordinator.cancel(qid)?;
        self.waiting.lock().retain(|(_, f)| f.id() != qid);
        Ok(())
    }

    /// The user's account view: confirmed reservations plus pending
    /// coordination requests.
    pub fn account_view(&self, user: &str) -> TravelResult<AccountView> {
        let flights = self.reserved_ids(user, "Reservation")?;
        let hotels = self.reserved_ids(user, "HotelReservation")?;
        let pending = self
            .coordinator
            .pending_snapshot()
            .into_iter()
            .filter(|p| p.owner == user)
            .map(|p| p.id)
            .collect();
        Ok(AccountView {
            flights,
            hotels,
            pending,
        })
    }

    /// Confirmed reservation ids for `user` in one answer relation.
    /// Reads by position (column 0 = traveler, column 1 = id) so it
    /// works whether the table was pre-created by the schema or
    /// auto-created by the coordinator.
    fn reserved_ids(&self, user: &str, relation: &str) -> TravelResult<Vec<i64>> {
        let read = self.db.read();
        let table = read.table(relation)?;
        let mut ids: Vec<i64> = table
            .scan()
            .filter(|(_, t)| t.values()[0].as_str() == Some(user))
            .filter_map(|(_, t)| t.values()[1].as_int())
            .collect();
        ids.sort();
        Ok(ids)
    }

    /// Submits entangled SQL, routes notifications, returns the
    /// outcome.
    fn submit(&self, user: &str, sql: &str) -> TravelResult<BookingOutcome> {
        let outcome = match self.coordinator.submit_sql(user, sql)? {
            Submission::Answered(n) => {
                self.notifier.send(user, render_confirmation(&n));
                BookingOutcome::Confirmed(n.answers)
            }
            Submission::Pending(future) => {
                let qid = future.id();
                self.waiting.lock().push((user.to_string(), future));
                BookingOutcome::Waiting(qid)
            }
        };
        // Partners whose futures just resolved get their "Facebook
        // message" now.
        self.deliver_ready();
        Ok(outcome)
    }

    /// Drains resolved futures into user mailboxes (a cancelled or
    /// expired request just leaves the list). Called after every
    /// submission; callers may also invoke it manually (e.g. after
    /// `retry_all`).
    pub fn deliver_ready(&self) {
        self.waiting
            .lock()
            .retain_mut(|(user, future)| match future.try_take() {
                Some(CoordinationOutcome::Answered(n)) => {
                    self.notifier.send(user, render_confirmation(&n));
                    false
                }
                Some(_) => false,
                None => true,
            });
    }

    /// Re-runs matching for all pending queries (after inventory
    /// changes) and delivers any resulting notifications.
    pub fn retry_pending(&self) -> usize {
        let count = self.coordinator.retry_all().len();
        self.deliver_ready();
        count
    }
}

/// The flight-domain subquery shared by all flight requests: seats must
/// cover the whole group.
fn flight_domain(dest: &str, prefs: FlightPrefs, group_size: i64) -> String {
    let mut sql = format!(
        "SELECT fno FROM Flights WHERE dest = {} AND seats >= {group_size}",
        sql_str(dest)
    );
    if let Some(day) = prefs.day {
        sql.push_str(&format!(" AND day = {day}"));
    }
    if let Some(p) = prefs.max_price {
        sql.push_str(&format!(" AND price <= {p}"));
    }
    sql
}

fn render_confirmation(n: &MatchNotification) -> String {
    let parts: Vec<String> = n
        .answers
        .iter()
        .map(|(rel, tuple)| format!("{rel}{tuple}"))
        .collect();
    format!(
        "Coordination complete ({} queries answered jointly): {}",
        n.group.len(),
        parts.join(", ")
    )
}

/// The inventory side effects, applied in the same transaction as the
/// match's answer-relation inserts: one seat per flight reservation,
/// one room per hotel reservation. Fails (rolling the match back) when
/// capacity ran out between matching and application.
fn inventory_hook(
    txn: &mut youtopia_storage::Transaction,
    m: &GroupMatch,
) -> Result<(), StorageError> {
    for (relation, tuple) in m.all_answers() {
        if relation.eq_ignore_ascii_case("Reservation") {
            decrement(txn, "Flights", 0, 5, &tuple.values()[1], "seats")?;
        } else if relation.eq_ignore_ascii_case("HotelReservation") {
            decrement(txn, "Hotels", 0, 4, &tuple.values()[1], "rooms")?;
        } else if relation.eq_ignore_ascii_case("SeatReservation") {
            take_seat(txn, &tuple.values()[1], &tuple.values()[2])?;
            // a numbered seat also consumes flight capacity
            decrement(txn, "Flights", 0, 5, &tuple.values()[1], "seats")?;
        }
    }
    Ok(())
}

/// Marks the seat `(fno, seatno)` taken; fails when it already is
/// (rolling the whole match back).
fn take_seat(
    txn: &mut youtopia_storage::Transaction,
    fno: &Value,
    seatno: &Value,
) -> Result<(), StorageError> {
    let (rid, mut values) = {
        let seats = txn.table("Seats")?;
        let rid = seats
            .rows_where_eq(0, fno)
            .into_iter()
            .find(|rid| {
                seats
                    .get(*rid)
                    .is_some_and(|row| row.values()[1].sql_eq(seatno))
            })
            .ok_or_else(|| {
                StorageError::Internal(format!("seat {seatno} on flight {fno} vanished"))
            })?;
        (rid, seats.get(rid).expect("row exists").values().to_vec())
    };
    if values[2] == Value::Bool(true) {
        return Err(StorageError::Internal(format!(
            "seat {seatno} on flight {fno} is already taken"
        )));
    }
    values[2] = Value::Bool(true);
    txn.update("Seats", rid, Tuple::new(values))?;
    Ok(())
}

/// Decrements `table`'s capacity column (`cap_pos`) for the row whose
/// key column (`key_pos`) equals `key`.
fn decrement(
    txn: &mut youtopia_storage::Transaction,
    table: &str,
    key_pos: usize,
    cap_pos: usize,
    key: &Value,
    what: &str,
) -> Result<(), StorageError> {
    let (rid, mut values) = {
        let t = txn.table(table)?;
        let rid = *t
            .rows_where_eq(key_pos, key)
            .first()
            .ok_or_else(|| StorageError::Internal(format!("{table} row {key} vanished")))?;
        (rid, t.get(rid).expect("row exists").values().to_vec())
    };
    let current = values[cap_pos]
        .as_int()
        .ok_or_else(|| StorageError::Internal(format!("{what} column is not an integer")))?;
    if current <= 0 {
        return Err(StorageError::Internal(format!(
            "no {what} left on {table} {key}"
        )));
    }
    values[cap_pos] = Value::Int(current - 1);
    txn.update(table, rid, Tuple::new(values))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> TravelService {
        let s = TravelService::bootstrap_demo().unwrap();
        s.social()
            .import_friends("jerry", &["kramer", "elaine", "george"])
            .unwrap();
        s.social()
            .import_friends("kramer", &["elaine", "george"])
            .unwrap();
        s.social().import_friends("elaine", &["george"]).unwrap();
        s
    }

    #[test]
    fn search_flights_sorted_by_price() {
        let s = service();
        let flights = s.search_flights("Paris", FlightPrefs::default()).unwrap();
        assert_eq!(flights.len(), 4);
        assert!(flights.windows(2).all(|w| w[0].price <= w[1].price));
        let cheap = s
            .search_flights(
                "Paris",
                FlightPrefs {
                    max_price: Some(500.0),
                    day: None,
                },
            )
            .unwrap();
        assert_eq!(cheap.len(), 3);
        let day2 = s
            .search_flights(
                "Paris",
                FlightPrefs {
                    day: Some(2),
                    max_price: None,
                },
            )
            .unwrap();
        assert_eq!(day2.len(), 1);
        assert_eq!(day2[0].fno, 134);
    }

    #[test]
    fn direct_booking_decrements_seats_and_notifies_answer_relation() {
        let s = service();
        let answers = s.book_direct("jerry", 122).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].0, "Reservation");
        assert_eq!(model::flight_by_fno(s.db(), 122).unwrap().seats, 9);
        assert_eq!(s.account_view("jerry").unwrap().flights, vec![122]);
    }

    #[test]
    fn direct_booking_sells_out() {
        let s = service();
        // flight 134 has 4 seats
        for i in 0..4 {
            s.book_direct(&format!("u{i}"), 134).unwrap();
        }
        assert!(matches!(
            s.book_direct("late", 134),
            Err(TravelError::SoldOut(_))
        ));
        assert!(matches!(
            s.book_direct("x", 999),
            Err(TravelError::NoSuchItem(_))
        ));
    }

    #[test]
    fn pair_coordination_books_same_flight() {
        let s = service();
        let w = s
            .coordinate_flight("jerry", "kramer", "Paris", FlightPrefs::default())
            .unwrap();
        assert!(matches!(w, BookingOutcome::Waiting(_)));
        // jerry shows as pending in his account
        assert_eq!(s.account_view("jerry").unwrap().pending.len(), 1);

        let seats_before: std::collections::HashMap<i64, i64> = s
            .search_flights("Paris", FlightPrefs::default())
            .unwrap()
            .into_iter()
            .map(|f| (f.fno, f.seats))
            .collect();

        let c = s
            .coordinate_flight("kramer", "jerry", "Paris", FlightPrefs::default())
            .unwrap();
        let BookingOutcome::Confirmed(answers) = c else {
            panic!("kramer completes")
        };
        let fno = answers[0].1.values()[1].as_int().unwrap();

        let jerry_view = s.account_view("jerry").unwrap();
        assert_eq!(jerry_view.flights, vec![fno]);
        assert!(jerry_view.pending.is_empty());
        // two seats gone from that flight
        assert_eq!(
            model::flight_by_fno(s.db(), fno).unwrap().seats,
            seats_before[&fno] - 2
        );
        // both users got their "Facebook message"
        assert_eq!(s.notifier().inbox("jerry").len(), 1);
        assert_eq!(s.notifier().inbox("kramer").len(), 1);
    }

    #[test]
    fn coordination_requires_friendship() {
        let s = service();
        s.social().register("newman").unwrap();
        assert!(matches!(
            s.coordinate_flight("jerry", "newman", "Paris", FlightPrefs::default()),
            Err(TravelError::NotFriends { .. })
        ));
    }

    #[test]
    fn price_preferences_constrain_the_choice() {
        let s = service();
        let prefs = FlightPrefs {
            max_price: Some(460.0),
            day: None,
        };
        s.coordinate_flight("jerry", "kramer", "Paris", prefs)
            .unwrap();
        let c = s
            .coordinate_flight("kramer", "jerry", "Paris", prefs)
            .unwrap();
        let BookingOutcome::Confirmed(answers) = c else {
            panic!()
        };
        // only flight 122 (450.0) qualifies
        assert_eq!(answers[0].1.values()[1], Value::Int(122));
    }

    #[test]
    fn incompatible_preferences_never_match() {
        let s = service();
        s.coordinate_flight(
            "jerry",
            "kramer",
            "Paris",
            FlightPrefs {
                day: Some(1),
                max_price: None,
            },
        )
        .unwrap();
        let out = s
            .coordinate_flight(
                "kramer",
                "jerry",
                "Paris",
                FlightPrefs {
                    day: Some(2),
                    max_price: None,
                },
            )
            .unwrap();
        assert!(matches!(out, BookingOutcome::Waiting(_)));
    }

    #[test]
    fn flight_and_hotel_all_or_nothing() {
        let s = service();
        s.coordinate_flight_and_hotel("jerry", "kramer", "Paris", FlightPrefs::default())
            .unwrap();
        let c = s
            .coordinate_flight_and_hotel("kramer", "jerry", "Paris", FlightPrefs::default())
            .unwrap();
        let BookingOutcome::Confirmed(answers) = c else {
            panic!()
        };
        assert_eq!(answers.len(), 2);
        let jerry = s.account_view("jerry").unwrap();
        let kramer = s.account_view("kramer").unwrap();
        assert_eq!(jerry.flights, kramer.flights);
        assert_eq!(jerry.hotels, kramer.hotels);
        // a room was taken twice
        let hid = jerry.hotels[0];
        let hotel = model::hotel_by_hid(s.db(), hid).unwrap();
        assert_eq!(hotel.city, "Paris");
    }

    #[test]
    fn group_of_four_books_one_flight() {
        let s = service();
        let everyone = ["jerry", "kramer", "elaine", "george"];
        let mut last = None;
        for (i, user) in everyone.iter().enumerate() {
            let others: Vec<&str> = everyone.iter().filter(|u| *u != user).copied().collect();
            let out = s
                .coordinate_group_flight(user, &others, "Paris", FlightPrefs::default())
                .unwrap();
            if i < everyone.len() - 1 {
                assert!(
                    matches!(out, BookingOutcome::Waiting(_)),
                    "member {i} waits"
                );
            } else {
                last = Some(out);
            }
        }
        let BookingOutcome::Confirmed(_) = last.unwrap() else {
            panic!("last member completes the group")
        };
        let fnos: std::collections::HashSet<i64> = everyone
            .iter()
            .map(|u| s.account_view(u).unwrap().flights[0])
            .collect();
        assert_eq!(fnos.len(), 1, "all four on the same flight");
        let fno = *fnos.iter().next().unwrap();
        // 4 seats consumed; flight 134 (4 seats) would be exactly empty
        let flight = model::flight_by_fno(s.db(), fno).unwrap();
        assert!(flight.seats >= 0);
        // everyone was notified
        for u in everyone {
            assert_eq!(s.notifier().inbox(u).len(), 1);
        }
    }

    #[test]
    fn group_flight_and_hotel() {
        let s = service();
        let trio = ["jerry", "kramer", "elaine"];
        for user in &trio {
            let others: Vec<&str> = trio.iter().filter(|u| *u != user).copied().collect();
            s.coordinate_group_flight_and_hotel(user, &others, "Paris", FlightPrefs::default())
                .unwrap();
        }
        let hotels: std::collections::HashSet<i64> = trio
            .iter()
            .map(|u| s.account_view(u).unwrap().hotels[0])
            .collect();
        assert_eq!(hotels.len(), 1, "all three in the same hotel");
    }

    #[test]
    fn adhoc_asymmetric_coordination() {
        // Jerry–Kramer coordinate on flights; Kramer–Elaine on flight
        // AND hotel (the paper's ad-hoc example).
        let s = service();
        let jerry = "SELECT 'jerry', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris' AND seats >= 3) \
             AND ('kramer', fno) IN ANSWER Reservation CHOOSE 1";
        let kramer = "SELECT 'kramer', fno INTO ANSWER Reservation, \
             'kramer', hid INTO ANSWER HotelReservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris' AND seats >= 3) \
             AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris' AND rooms >= 2) \
             AND ('jerry', fno) IN ANSWER Reservation \
             AND ('elaine', hid) IN ANSWER HotelReservation CHOOSE 1";
        let elaine = "SELECT 'elaine', fno INTO ANSWER Reservation, \
             'elaine', hid INTO ANSWER HotelReservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris' AND seats >= 3) \
             AND hid IN (SELECT hid FROM Hotels WHERE city = 'Paris' AND rooms >= 2) \
             AND ('kramer', fno) IN ANSWER Reservation \
             AND ('kramer', hid) IN ANSWER HotelReservation CHOOSE 1";
        assert!(!s.coordinate_custom("jerry", jerry).unwrap().is_confirmed());
        assert!(!s
            .coordinate_custom("kramer", kramer)
            .unwrap()
            .is_confirmed());
        assert!(s
            .coordinate_custom("elaine", elaine)
            .unwrap()
            .is_confirmed());

        let j = s.account_view("jerry").unwrap();
        let k = s.account_view("kramer").unwrap();
        let e = s.account_view("elaine").unwrap();
        assert_eq!(j.flights, k.flights, "jerry & kramer share the flight");
        assert_eq!(k.hotels, e.hotels, "kramer & elaine share the hotel");
        assert!(j.hotels.is_empty(), "jerry did not book a hotel");
    }

    #[test]
    fn browse_then_join_flow() {
        let s = service();
        // Kramer books directly (Figure 4 path: Jerry can see it).
        s.book_direct("kramer", 123).unwrap();
        let seen = s.browse_friend_bookings("jerry").unwrap();
        assert_eq!(seen, vec![("kramer".to_string(), 123)]);
        // Jerry decides and books the same flight directly.
        s.book_direct("jerry", 123).unwrap();
        assert_eq!(s.account_view("jerry").unwrap().flights, vec![123]);
    }

    #[test]
    fn cancel_withdraws_pending_request() {
        let s = service();
        let BookingOutcome::Waiting(qid) = s
            .coordinate_flight("jerry", "kramer", "Paris", FlightPrefs::default())
            .unwrap()
        else {
            panic!()
        };
        s.cancel("jerry", qid).unwrap();
        assert!(s.account_view("jerry").unwrap().pending.is_empty());
        // kramer's later request now waits (no partner)
        let out = s
            .coordinate_flight("kramer", "jerry", "Paris", FlightPrefs::default())
            .unwrap();
        assert!(matches!(out, BookingOutcome::Waiting(_)));
    }

    #[test]
    fn a_rejected_arrival_is_notified_when_a_retry_books_it() {
        let s = service();
        // an answer table the match cannot write: the closing arrival's
        // apply fails, and the pair stays pending with both handles
        run_sql(s.db(), "DROP TABLE Reservation").unwrap();
        run_sql(
            s.db(),
            "CREATE TABLE Reservation (traveler STRING, fno INT, note STRING)",
        )
        .unwrap();
        s.coordinate_flight("jerry", "kramer", "Paris", FlightPrefs::default())
            .unwrap();
        let out = s
            .coordinate_flight("kramer", "jerry", "Paris", FlightPrefs::default())
            .unwrap();
        assert!(matches!(out, BookingOutcome::Waiting(_)));
        // once the table is gone the match re-creates it; the retry
        // books the pair and tells both travelers
        run_sql(s.db(), "DROP TABLE Reservation").unwrap();
        assert_eq!(s.retry_pending(), 2);
        assert_eq!(s.notifier().inbox("jerry").len(), 1);
        assert_eq!(s.notifier().inbox("kramer").len(), 1);
    }

    #[test]
    fn retry_pending_after_inventory_appears() {
        let s = service();
        s.coordinate_flight(
            "jerry",
            "kramer",
            "Oslo", // no flights yet
            FlightPrefs::default(),
        )
        .unwrap();
        s.coordinate_flight("kramer", "jerry", "Oslo", FlightPrefs::default())
            .unwrap();
        assert_eq!(s.retry_pending(), 0);
        run_sql(
            s.db(),
            "INSERT INTO Flights VALUES (500, 'New York', 'Oslo', 1, 350.0, 5)",
        )
        .unwrap();
        assert_eq!(s.retry_pending(), 2);
        assert_eq!(s.account_view("jerry").unwrap().flights, vec![500]);
        assert_eq!(s.notifier().inbox("jerry").len(), 1);
        assert_eq!(s.notifier().inbox("kramer").len(), 1);
    }

    #[test]
    fn adjacent_seat_coordination() {
        let s = service();
        let w = s
            .coordinate_adjacent_seats("jerry", "kramer", "Paris")
            .unwrap();
        assert!(matches!(w, BookingOutcome::Waiting(_)));
        let BookingOutcome::Confirmed(answers) = s
            .coordinate_adjacent_seats("kramer", "jerry", "Paris")
            .unwrap()
        else {
            panic!("kramer completes the adjacency pair")
        };
        assert_eq!(answers[0].0, "SeatReservation");

        // read both seat reservations back
        let read = s.db().read();
        let table = read.table("SeatReservation").unwrap();
        let rows: Vec<(String, i64, i64)> = table
            .scan()
            .map(|(_, t)| {
                (
                    t.values()[0].as_str().unwrap().to_string(),
                    t.values()[1].as_int().unwrap(),
                    t.values()[2].as_int().unwrap(),
                )
            })
            .collect();
        assert_eq!(rows.len(), 2);
        let jerry = rows.iter().find(|(who, _, _)| who == "jerry").unwrap();
        let kramer = rows.iter().find(|(who, _, _)| who == "kramer").unwrap();
        assert_eq!(jerry.1, kramer.1, "same flight");
        assert_eq!((jerry.2 - kramer.2).abs(), 1, "adjacent seats");
        drop(read);

        // the seat map was updated atomically with the match
        let free = model::free_seats(s.db(), jerry.1).unwrap();
        assert!(!free.contains(&jerry.2));
        assert!(!free.contains(&kramer.2));
        assert_eq!(free.len(), 4, "6 seats minus the pair");
        // and flight capacity was decremented twice
        let flight = model::flight_by_fno(s.db(), jerry.1).unwrap();
        assert!(flight.seats <= 8);
    }

    #[test]
    fn adjacent_seats_impossible_when_only_scattered_seats_remain() {
        let s = service();
        // occupy seats so that on EVERY Paris flight only seats 1, 3, 5
        // remain free: no adjacent pair exists anywhere
        let read_fnos: Vec<i64> = s
            .search_flights("Paris", FlightPrefs::default())
            .unwrap()
            .iter()
            .map(|f| f.fno)
            .collect();
        s.db()
            .with_txn(|txn| {
                let rids: Vec<_> = {
                    let seats = txn.table("Seats")?;
                    seats
                        .scan()
                        .filter(|(_, t)| {
                            let fno = t.values()[0].as_int().unwrap();
                            let seat = t.values()[1].as_int().unwrap();
                            read_fnos.contains(&fno) && seat % 2 == 0
                        })
                        .map(|(rid, t)| (rid, t.clone()))
                        .collect()
                };
                for (rid, t) in rids {
                    let mut vals = t.into_values();
                    vals[2] = Value::Bool(true);
                    txn.update("Seats", rid, Tuple::new(vals))?;
                }
                Ok(())
            })
            .unwrap();

        s.coordinate_adjacent_seats("jerry", "kramer", "Paris")
            .unwrap();
        let out = s
            .coordinate_adjacent_seats("kramer", "jerry", "Paris")
            .unwrap();
        assert!(
            matches!(out, BookingOutcome::Waiting(_)),
            "no adjacent free seats anywhere: the pair must keep waiting"
        );
    }

    #[test]
    fn capacity_is_respected_under_group_pressure() {
        let s = service();
        // flight 134 has 4 seats; two pairs of two CAN share it, but a
        // pair + a trio cannot all fit if they pick 134. The seats >= k
        // membership keeps groups from oversubscribing: the trio
        // requires seats >= 3 and decrements will never go negative.
        for (a, b) in [("jerry", "kramer"), ("elaine", "george")] {
            s.coordinate_flight(
                a,
                b,
                "Paris",
                FlightPrefs {
                    day: Some(2),
                    max_price: None,
                },
            )
            .unwrap();
            s.coordinate_flight(
                b,
                a,
                "Paris",
                FlightPrefs {
                    day: Some(2),
                    max_price: None,
                },
            )
            .unwrap();
        }
        assert_eq!(model::flight_by_fno(s.db(), 134).unwrap().seats, 0);
    }
}
