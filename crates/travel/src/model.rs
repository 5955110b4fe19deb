//! The travel database schema and demo dataset.
//!
//! Mirrors the paper's Figure 1 flight database, extended with the
//! attributes the demo scenarios need (dates, prices, capacities,
//! hotels, users and the friend graph).

use youtopia_exec::{run_sql, StatementOutcome};
#[cfg(test)]
use youtopia_storage::Value;
use youtopia_storage::{Database, Tuple};

use crate::error::{TravelError, TravelResult};

/// A flight row.
#[derive(Debug, Clone, PartialEq)]
pub struct Flight {
    /// Flight number.
    pub fno: i64,
    /// Origin city.
    pub origin: String,
    /// Destination city.
    pub dest: String,
    /// Travel day (1-based demo calendar).
    pub day: i64,
    /// Ticket price.
    pub price: f64,
    /// Seats still available.
    pub seats: i64,
}

impl Flight {
    /// Decodes a `Flights` table row.
    pub fn from_tuple(t: &Tuple) -> TravelResult<Flight> {
        let v = t.values();
        let bad = || TravelError::NoSuchItem(format!("malformed flight row {t}"));
        Ok(Flight {
            fno: v[0].as_int().ok_or_else(bad)?,
            origin: v[1].as_str().ok_or_else(bad)?.to_string(),
            dest: v[2].as_str().ok_or_else(bad)?.to_string(),
            day: v[3].as_int().ok_or_else(bad)?,
            price: v[4].as_float().ok_or_else(bad)?,
            seats: v[5].as_int().ok_or_else(bad)?,
        })
    }
}

/// A hotel row.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotel {
    /// Hotel id.
    pub hid: i64,
    /// City.
    pub city: String,
    /// Check-in day.
    pub day: i64,
    /// Nightly price.
    pub price: f64,
    /// Rooms still available.
    pub rooms: i64,
}

impl Hotel {
    /// Decodes a `Hotels` table row.
    pub fn from_tuple(t: &Tuple) -> TravelResult<Hotel> {
        let v = t.values();
        let bad = || TravelError::NoSuchItem(format!("malformed hotel row {t}"));
        Ok(Hotel {
            hid: v[0].as_int().ok_or_else(bad)?,
            city: v[1].as_str().ok_or_else(bad)?.to_string(),
            day: v[2].as_int().ok_or_else(bad)?,
            price: v[3].as_float().ok_or_else(bad)?,
            rooms: v[4].as_int().ok_or_else(bad)?,
        })
    }
}

/// Creates the travel tables, including the two answer relations
/// (`Reservation`, `HotelReservation`) with application-friendly column
/// names — the coordinator inserts matched answers straight into them.
pub fn install_schema(db: &Database) -> TravelResult<()> {
    for sql in [
        "CREATE TABLE Users (name STRING PRIMARY KEY)",
        "CREATE TABLE Friends (a STRING NOT NULL, b STRING NOT NULL)",
        "CREATE TABLE Flights (fno INT PRIMARY KEY, origin STRING NOT NULL, \
         dest STRING NOT NULL, day INT NOT NULL, price FLOAT NOT NULL, seats INT NOT NULL)",
        "CREATE TABLE Hotels (hid INT PRIMARY KEY, city STRING NOT NULL, \
         day INT NOT NULL, price FLOAT NOT NULL, rooms INT NOT NULL)",
        // seat map for the "adjacent seat" scenario (§3.1 first demo:
        // "he wants to fly in an adjacent seat to Kramer")
        "CREATE TABLE Seats (fno INT NOT NULL, seatno INT NOT NULL, taken BOOL NOT NULL)",
        "CREATE TABLE Reservation (traveler STRING NOT NULL, fno INT NOT NULL)",
        "CREATE TABLE HotelReservation (traveler STRING NOT NULL, hid INT NOT NULL)",
        "CREATE TABLE SeatReservation (traveler STRING NOT NULL, fno INT NOT NULL, \
         seatno INT NOT NULL)",
        // secondary indexes the workloads hammer
        "CREATE INDEX flights_by_dest ON Flights (dest)",
        "CREATE INDEX hotels_by_city ON Hotels (city)",
        "CREATE INDEX friends_by_a ON Friends (a)",
        "CREATE INDEX reservation_by_traveler ON Reservation (traveler)",
        "CREATE INDEX seats_by_fno ON Seats (fno)",
    ] {
        run_sql(db, sql)?;
    }
    Ok(())
}

/// Loads the demonstration dataset: the paper's Figure 1 flights
/// (122/123/134 to Paris, 136 to Rome) plus additional inventory for
/// the group and multi-pair scenarios.
pub fn seed_demo_data(db: &Database) -> TravelResult<()> {
    for sql in [
        // Figure 1 flights, given seats/prices for the demo
        "INSERT INTO Flights VALUES \
         (122, 'New York', 'Paris', 1, 450.0, 10), \
         (123, 'New York', 'Paris', 1, 500.0, 10), \
         (134, 'New York', 'Paris', 2, 800.0, 4), \
         (136, 'New York', 'Rome', 1, 300.0, 10), \
         (201, 'New York', 'London', 1, 250.0, 6), \
         (202, 'New York', 'London', 2, 260.0, 6), \
         (301, 'Boston', 'Paris', 1, 480.0, 8)",
        "INSERT INTO Hotels VALUES \
         (7, 'Paris', 1, 120.0, 10), \
         (8, 'Paris', 1, 200.0, 5), \
         (9, 'Rome', 1, 90.0, 10), \
         (10, 'London', 1, 110.0, 8)",
    ] {
        run_sql(db, sql)?;
    }
    // six numbered seats per flight, all free
    let mut seat_rows = Vec::new();
    for fno in [122, 123, 134, 136, 201, 202, 301] {
        for seatno in 1..=6 {
            seat_rows.push(format!("({fno}, {seatno}, FALSE)"));
        }
    }
    run_sql(
        db,
        &format!("INSERT INTO Seats VALUES {}", seat_rows.join(", ")),
    )?;
    Ok(())
}

/// Free seat numbers on one flight, sorted.
pub fn free_seats(db: &Database, fno: i64) -> TravelResult<Vec<i64>> {
    let out = run_sql(
        db,
        &format!("SELECT seatno FROM Seats WHERE fno = {fno} AND taken = FALSE ORDER BY seatno"),
    )?;
    let StatementOutcome::Rows(rs) = out else {
        unreachable!("select query")
    };
    Ok(rs
        .rows
        .iter()
        .filter_map(|r| r.values()[0].as_int())
        .collect())
}

/// Fetches one flight by number.
pub fn flight_by_fno(db: &Database, fno: i64) -> TravelResult<Flight> {
    let out = run_sql(db, &format!("SELECT * FROM Flights WHERE fno = {fno}"))?;
    let StatementOutcome::Rows(rs) = out else {
        return Err(TravelError::NoSuchItem(format!("flight {fno}")));
    };
    match rs.rows.first() {
        Some(row) => Flight::from_tuple(row),
        None => Err(TravelError::NoSuchItem(format!("flight {fno}"))),
    }
}

/// Fetches one hotel by id.
pub fn hotel_by_hid(db: &Database, hid: i64) -> TravelResult<Hotel> {
    let out = run_sql(db, &format!("SELECT * FROM Hotels WHERE hid = {hid}"))?;
    let StatementOutcome::Rows(rs) = out else {
        return Err(TravelError::NoSuchItem(format!("hotel {hid}")));
    };
    match rs.rows.first() {
        Some(row) => Hotel::from_tuple(row),
        None => Err(TravelError::NoSuchItem(format!("hotel {hid}"))),
    }
}

/// Escapes a string for inclusion in a SQL literal.
pub fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Renders a `Value` for SQL text generation.
#[cfg(test)]
fn sql_value(v: &Value) -> String {
    v.sql_literal()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new();
        install_schema(&db).unwrap();
        seed_demo_data(&db).unwrap();
        db
    }

    #[test]
    fn schema_installs_and_seeds() {
        let db = db();
        let read = db.read();
        assert_eq!(read.table("Flights").unwrap().len(), 7);
        assert_eq!(read.table("Hotels").unwrap().len(), 4);
        assert!(read.table("Reservation").unwrap().is_empty());
        assert!(read
            .table("Flights")
            .unwrap()
            .index("flights_by_dest")
            .is_some());
    }

    /// The schema's secondary indexes come back when the database
    /// restarts from its file WAL.
    #[test]
    fn schema_indexes_survive_a_restart() {
        use youtopia_storage::Wal;
        let dir = std::env::temp_dir().join(format!("youtopia_schema_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.wal");
        let _ = std::fs::remove_file(&path);
        install_schema(&Database::with_wal(Wal::open(&path).unwrap())).unwrap();
        let (db, _) = Database::recover(Wal::open(&path).unwrap()).unwrap();
        let read = db.read();
        let flights = read.table("Flights").unwrap();
        assert_eq!(flights.indexes().len(), 2);
        assert!(flights.index("flights_by_dest").is_some());
        drop(read);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fig1_flights_present() {
        let db = db();
        let f = flight_by_fno(&db, 122).unwrap();
        assert_eq!(f.dest, "Paris");
        assert_eq!(f.price, 450.0);
        assert_eq!(f.seats, 10);
        let rome = flight_by_fno(&db, 136).unwrap();
        assert_eq!(rome.dest, "Rome");
    }

    #[test]
    fn missing_items_error() {
        let db = db();
        assert!(matches!(
            flight_by_fno(&db, 999),
            Err(TravelError::NoSuchItem(_))
        ));
        assert!(matches!(
            hotel_by_hid(&db, 999),
            Err(TravelError::NoSuchItem(_))
        ));
    }

    #[test]
    fn hotel_decoding() {
        let db = db();
        let h = hotel_by_hid(&db, 7).unwrap();
        assert_eq!(h.city, "Paris");
        assert_eq!(h.rooms, 10);
    }

    #[test]
    fn sql_escaping() {
        assert_eq!(sql_str("O'Hare"), "'O''Hare'");
        assert_eq!(sql_value(&Value::Int(4)), "4");
    }
}
