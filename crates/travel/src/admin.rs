//! The administrative ("debugging") interface of Section 3.2: a SQL
//! command line that accepts regular SQL *and* entangled queries, plus
//! a special mode that renders the internal coordination state (the
//! pending queries and their IR).

use std::sync::Arc;

use parking_lot::Mutex;
use youtopia_core::{
    latency_histogram, CoreError, RecoveryReport, ShardedCoordinator, Submission, AUDIT_TABLE,
};
use youtopia_exec::{run_statement, ExecError, ResultSet, StatementOutcome};
use youtopia_sql::{parse_statement, Statement};
use youtopia_storage::Database;

/// The admin console: wraps a database and its coordinator.
pub struct AdminConsole {
    db: Database,
    coordinator: Arc<ShardedCoordinator>,
    recovery: Mutex<Option<RecoveryReport>>,
}

impl AdminConsole {
    /// Builds a console over an existing stack.
    pub fn new(db: Database, coordinator: Arc<ShardedCoordinator>) -> AdminConsole {
        AdminConsole {
            db,
            coordinator,
            recovery: Mutex::new(None),
        }
    }

    /// Stores the report of a crash recovery (from
    /// [`crate::TravelService::recover`]) so the `recovery` admin
    /// command can render what the replay actually did.
    pub fn set_recovery_report(&self, report: RecoveryReport) {
        *self.recovery.lock() = Some(report);
    }

    /// Executes one command line as `user` and renders the outcome as
    /// text. Handles the full statement surface: DDL/DML/queries via
    /// the execution engine, entangled queries via the coordination
    /// component, `SHOW PENDING` via the registry snapshot — plus the
    /// observability commands `audit`, `latency <tenant>`, `recovery`
    /// and `gauges`, which are intercepted before SQL parsing.
    pub fn execute_as(&self, user: &str, line: &str) -> String {
        if let Some(out) = self.observability_command(line.trim()) {
            return out;
        }
        let stmt = match parse_statement(line) {
            Ok(s) => s,
            Err(e) => return format!("error: {e}"),
        };
        match stmt {
            // EXPLAIN of an entangled query renders the coordination IR
            // and the safety verdicts instead of submitting
            Statement::Explain(inner) if matches!(inner.as_ref(), Statement::Entangled(_)) => {
                self.explain(&inner.to_string())
            }
            Statement::Entangled(_) => match self.coordinator.submit_sql(user, line) {
                Ok(Submission::Answered(n)) => {
                    let answers: Vec<String> =
                        n.answers.iter().map(|(r, t)| format!("{r}{t}")).collect();
                    format!(
                        "answered immediately (group of {}): {}",
                        n.group.len(),
                        answers.join(", ")
                    )
                }
                Ok(Submission::Pending(f)) => {
                    format!(
                        "registered as {} (waiting for coordination partners)",
                        f.id()
                    )
                }
                Err(CoreError::Unsafe(msg)) => format!("rejected: unsafe query: {msg}"),
                Err(e) => format!("error: {e}"),
            },
            Statement::ShowPending => self.render_pending(),
            other => match run_statement(&self.db, &other) {
                Ok(StatementOutcome::Rows(rs)) => render_result_set(&rs),
                Ok(StatementOutcome::Affected(n)) => format!("{n} row(s) affected"),
                Ok(StatementOutcome::Done) => "ok".to_string(),
                Ok(StatementOutcome::TableNames(names)) => {
                    if names.is_empty() {
                        "(no tables)".to_string()
                    } else {
                        names.join("\n")
                    }
                }
                Ok(StatementOutcome::Plan(plan)) => plan,
                Ok(StatementOutcome::Entangled(_)) | Ok(StatementOutcome::ShowPending) => {
                    unreachable!("handled above")
                }
                Err(ExecError::Storage(e)) => format!("error: {e}"),
                Err(e) => format!("error: {e}"),
            },
        }
    }

    /// Executes as the default `admin` user.
    pub fn execute(&self, line: &str) -> String {
        self.execute_as("admin", line)
    }

    /// Compiles entangled SQL *without* submitting it and renders the
    /// internal representation plus the safety verdicts — the "visual
    /// inspection of ... their representation in the system" of §3.2,
    /// usable before committing to a request.
    pub fn explain(&self, sql: &str) -> String {
        use youtopia_core::{check_safety, compile_sql, SafetyMode};
        match compile_sql(sql) {
            Ok(q) => {
                let strict = match check_safety(&q, SafetyMode::Strict) {
                    Ok(()) => "safe".to_string(),
                    Err(e) => format!("unsafe ({e})"),
                };
                let relaxed = match check_safety(&q, SafetyMode::Relaxed) {
                    Ok(()) => "safe".to_string(),
                    Err(e) => format!("unsafe ({e})"),
                };
                let vars: Vec<String> = q
                    .all_vars()
                    .iter()
                    .map(|v| format!("?{}", v.name()))
                    .collect();
                format!(
                    "ir: {q}\nvariables: {}\nsafety: strict = {strict}; relaxed = {relaxed}",
                    if vars.is_empty() {
                        "(none)".to_string()
                    } else {
                        vars.join(", ")
                    }
                )
            }
            Err(e) => format!("error: {e}"),
        }
    }

    /// The §3.2 "special mode": the set of queries pending to be
    /// entangled and their representation in the system.
    pub fn render_pending(&self) -> String {
        let pending = self.coordinator.pending_snapshot();
        if pending.is_empty() {
            return "(no pending entangled queries)".to_string();
        }
        let mut out = String::new();
        out.push_str(&format!("{} pending entangled quer(ies):\n", pending.len()));
        for p in pending {
            out.push_str(&format!(
                "  {} [owner={}, seq={}]\n    sql: {}\n    ir:  {}\n",
                p.id, p.owner, p.seq, p.sql, p.ir
            ));
        }
        out
    }

    /// Renders the match graph (§3.2: "visualize the state created by
    /// the matching algorithms"): potential partner edges between
    /// pending queries, and dangling constraints explaining waits.
    pub fn render_match_graph(&self) -> String {
        let graph = self.coordinator.match_graph();
        if graph.edges.is_empty() && graph.dangling.is_empty() {
            return "(match graph is empty: no pending entangled queries)".to_string();
        }
        let mut out = String::new();
        if !graph.edges.is_empty() {
            out.push_str("potential satisfactions:\n");
            for e in &graph.edges {
                out.push_str(&format!(
                    "  {} needs {}  <-- could be satisfied by {} head {}\n",
                    e.from, e.constraint, e.to, e.head
                ));
            }
        }
        if !graph.dangling.is_empty() {
            out.push_str("waiting on partners that do not exist yet:\n");
            for (qid, cidx, atom) in &graph.dangling {
                out.push_str(&format!("  {qid} constraint #{cidx}: {atom}\n"));
            }
        }
        out
    }

    /// Renders the coordination statistics.
    pub fn render_stats(&self) -> String {
        let s = self.coordinator.stats();
        format!(
            "submitted={} answered={} pending={} groups={} rejected_unsafe={} \
             match_attempts={} applies_rejected={} matching_ms={:.3}\n\
             work: candidates={} unify={}/{} groundings={} grounding_errors={} \
             rows_scanned={} membership_evals={} membership_hits={} nodes={}",
            s.submitted,
            s.answered,
            self.coordinator.pending_count(),
            s.groups_matched,
            s.rejected_unsafe,
            s.match_attempts,
            s.applies_rejected,
            s.matching_nanos as f64 / 1e6,
            s.match_work.candidates_considered,
            s.match_work.unify_successes,
            s.match_work.unify_attempts,
            s.match_work.groundings_attempted,
            s.match_work.grounding_errors,
            s.match_work.rows_scanned,
            s.match_work.membership_evals,
            s.match_work.membership_hits,
            s.match_work.nodes_expanded,
        )
    }

    /// Dispatches the observability commands; `None` when `line` is a
    /// regular statement for the SQL surface.
    fn observability_command(&self, line: &str) -> Option<String> {
        match line {
            "audit" => Some(self.render_audit()),
            "recovery" => Some(self.render_recovery()),
            "gauges" => Some(self.render_gauges()),
            _ => line
                .strip_prefix("latency ")
                .map(|tenant| self.render_latency(tenant.trim())),
        }
    }

    /// Renders the `sys_audit` coordination ledger (the `audit`
    /// command). The relation is ordinary SQL surface too — this is
    /// just the canonical SELECT, pre-spelled.
    fn render_audit(&self) -> String {
        if !self.db.read().catalog().has_table(AUDIT_TABLE) {
            return "(audit disabled: no sys_audit relation — \
                    enable CoordinatorConfig.audit)"
                .to_string();
        }
        self.execute(
            "SELECT qid, tenant, owner, kind, submitted_at, resolved_at, \
             outcome, latency_micros, shard FROM sys_audit",
        )
    }

    /// Renders one tenant's resolution-latency histogram (the
    /// `latency <tenant>` command): log2 buckets from
    /// `sys_tenant_latency`, bucket `b ≥ 1` covering `[2^(b-1), 2^b)`
    /// microseconds.
    fn render_latency(&self, tenant: &str) -> String {
        if tenant.is_empty() {
            return "usage: latency <tenant>".to_string();
        }
        let buckets = latency_histogram(&self.db, Some(tenant));
        if buckets.is_empty() {
            return format!("(no resolved coordinations for tenant '{tenant}')");
        }
        let mut out = format!("latency histogram for '{tenant}' (micros):\n");
        for b in &buckets {
            let range = match b.bucket {
                0 => "0".to_string(),
                64 => format!("[{}, inf)", 1u64 << 63),
                n => format!("[{}, {})", 1u64 << (n - 1), 1u64 << n),
            };
            out.push_str(&format!("  {:<9} {:>24}  {}\n", b.outcome, range, b.count));
        }
        out
    }

    /// Renders the stored crash-recovery report (the `recovery`
    /// command).
    fn render_recovery(&self) -> String {
        match &*self.recovery.lock() {
            None => "(no recovery this session)".to_string(),
            Some(r) => format!(
                "recovery: events_replayed={} restored_pending={} rematched_groups={} \
                 expired_at_recovery={} triggers_pruned={} sweep_micros={}",
                r.events_replayed,
                r.restored_pending,
                r.rematched_groups,
                r.expired_at_recovery,
                r.triggers_pruned,
                r.sweep_micros,
            ),
        }
    }

    /// Renders the log-surface gauges (the `gauges` command).
    fn render_gauges(&self) -> String {
        let s = self.coordinator.stats();
        format!(
            "gauges: wal_bytes={} wal_bytes_since_checkpoint={} checkpoint_age_millis={} \
             auto_checkpoints={} wal_syncs={} wal_groups={} pending={}",
            s.wal_bytes,
            s.wal_bytes_since_checkpoint,
            s.checkpoint_age_millis,
            s.auto_checkpoints,
            self.db.wal_syncs().unwrap_or(0),
            self.db.wal_groups().unwrap_or(0),
            self.coordinator.pending_count(),
        )
    }
}

/// Renders a result set as an aligned ASCII table.
pub fn render_result_set(rs: &ResultSet) -> String {
    let headers = rs.column_names();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    let rendered_rows: Vec<Vec<String>> = rs
        .rows
        .iter()
        .map(|row| {
            row.values()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let s = v.to_string();
                    if i < widths.len() {
                        widths[i] = widths[i].max(s.len());
                    }
                    s
                })
                .collect()
        })
        .collect();

    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}", w = *w))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let sep: String = format!(
        "+{}+",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+")
    );
    out.push_str(&sep);
    out.push('\n');
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in &rendered_rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out.push_str(&sep);
    out.push_str(&format!("\n{} row(s)", rs.rows.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::travel::TravelService;

    fn console() -> (TravelService, AdminConsole) {
        let s = TravelService::bootstrap_demo().unwrap();
        let console = AdminConsole::new(s.db().clone(), s.coordinator().clone());
        (s, console)
    }

    #[test]
    fn plain_sql_renders_tables() {
        let (_s, c) = console();
        let out = c.execute("SELECT fno, dest FROM Flights WHERE dest = 'Rome'");
        assert!(out.contains("fno"), "{out}");
        assert!(out.contains("136"), "{out}");
        assert!(out.contains("1 row(s)"), "{out}");
    }

    #[test]
    fn dml_and_ddl_feedback() {
        let (_s, c) = console();
        assert_eq!(c.execute("CREATE TABLE Scratch (a INT)"), "ok");
        assert_eq!(
            c.execute("INSERT INTO Scratch VALUES (1), (2)"),
            "2 row(s) affected"
        );
        assert_eq!(
            c.execute("DELETE FROM Scratch WHERE a = 1"),
            "1 row(s) affected"
        );
        let tables = c.execute("SHOW TABLES");
        assert!(tables.contains("Scratch"));
        assert!(tables.contains("Flights"));
    }

    #[test]
    fn entangled_queries_register_and_show_pending() {
        let (_s, c) = console();
        let out = c.execute_as(
            "kramer",
            "SELECT 'Kramer', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
        );
        assert!(out.contains("registered as q1"), "{out}");
        let pending = c.execute("SHOW PENDING");
        assert!(pending.contains("owner=kramer"), "{pending}");
        assert!(pending.contains("Reservation('Kramer'"), "{pending}");
    }

    #[test]
    fn entangled_completion_reports_the_group() {
        let (_s, c) = console();
        c.execute_as(
            "kramer",
            "SELECT 'Kramer', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
        );
        let out = c.execute_as(
            "jerry",
            "SELECT 'Jerry', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
        );
        assert!(out.contains("answered immediately (group of 2)"), "{out}");
        assert!(out.contains("Reservation('Jerry'"), "{out}");
        assert_eq!(c.execute("SHOW PENDING"), "(no pending entangled queries)");
    }

    #[test]
    fn unsafe_queries_report_the_reason() {
        let (_s, c) = console();
        let out = c.execute("SELECT 'X', v INTO ANSWER R CHOOSE 1");
        assert!(out.contains("unsafe"), "{out}");
        assert!(out.contains("?v"), "{out}");
    }

    #[test]
    fn parse_errors_are_reported_with_position() {
        let (_s, c) = console();
        let out = c.execute("SELEC 1");
        assert!(out.starts_with("error:"), "{out}");
        assert!(out.contains("line 1"), "{out}");
    }

    #[test]
    fn match_graph_renders_edges_and_dangling_constraints() {
        let (_s, c) = console();
        assert!(c.render_match_graph().contains("empty"));
        // Kramer waits for Jerry (who is absent): dangling
        c.execute_as(
            "kramer",
            "SELECT 'Kramer', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
        );
        let g1 = c.render_match_graph();
        assert!(g1.contains("waiting on partners"), "{g1}");
        assert!(g1.contains("Reservation('Jerry'"), "{g1}");

        // Elaine waits for George AND George waits for Elaine — but with
        // contradictory destination domains, so they stay pending while
        // the graph shows the potential edge.
        c.execute_as(
            "elaine",
            "SELECT 'Elaine', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris' AND price > 100000) \
             AND ('George', fno) IN ANSWER Reservation CHOOSE 1",
        );
        c.execute_as(
            "george",
            "SELECT 'George', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Rome' AND price > 100000) \
             AND ('Elaine', fno) IN ANSWER Reservation CHOOSE 1",
        );
        let g2 = c.render_match_graph();
        assert!(g2.contains("potential satisfactions"), "{g2}");
        assert!(g2.contains("could be satisfied by"), "{g2}");
        assert!(g2.contains("Reservation('George'"), "{g2}");
    }

    #[test]
    fn stats_render() {
        let (_s, c) = console();
        let out = c.render_stats();
        assert!(out.contains("submitted=0"), "{out}");
        c.execute_as(
            "a",
            "SELECT 'A', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1",
        );
        let out2 = c.render_stats();
        assert!(out2.contains("submitted=1"), "{out2}");
        assert!(out2.contains("groups=1"), "{out2}");
        assert!(
            out2.contains("membership_evals=1 membership_hits=0"),
            "{out2}"
        );
        // the same membership again: its table is unchanged, so it is
        // answered from the cache
        c.execute_as(
            "b",
            "SELECT 'B', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1",
        );
        let out3 = c.render_stats();
        assert!(
            out3.contains("membership_evals=1 membership_hits=1"),
            "{out3}"
        );
        assert!(out3.contains("applies_rejected=0"), "{out3}");
        assert!(out3.contains("grounding_errors=0"), "{out3}");
        // a membership on a missing table cannot be grounded: the query
        // waits, and the failure is counted
        c.execute_as(
            "c",
            "SELECT 'C', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Nope) CHOOSE 1",
        );
        let out4 = c.render_stats();
        assert!(out4.contains("pending=1"), "{out4}");
        assert!(out4.contains("grounding_errors=1"), "{out4}");
    }

    #[test]
    fn explain_statement_through_the_console() {
        let (_s, c) = console();
        let out = c.execute("EXPLAIN SELECT fno FROM Flights WHERE fno = 122");
        assert!(
            out.contains("IndexProbe Flights via Flights_pk key (122)"),
            "{out}"
        );
        assert!(out.contains("Filter fno = 122"), "{out}");

        let out2 = c.execute(
            "EXPLAIN SELECT 'K', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights) \
             AND ('J', fno) IN ANSWER R CHOOSE 1",
        );
        assert!(out2.contains("ir:"), "{out2}");
        assert!(out2.contains("safety:"), "{out2}");
        // nothing was registered
        assert_eq!(c.execute("SHOW PENDING"), "(no pending entangled queries)");
    }

    #[test]
    fn explain_reports_ir_and_safety() {
        let (_s, c) = console();
        let out = c.explain(
            "SELECT 'K', fno INTO ANSWER R \
             WHERE fno IN (SELECT fno FROM Flights) \
             AND ('J', fno) IN ANSWER R CHOOSE 1",
        );
        assert!(out.contains("R('K', ?fno)"), "{out}");
        assert!(out.contains("variables: ?fno"), "{out}");
        assert!(out.contains("strict = safe"), "{out}");
        assert!(out.contains("relaxed = safe"), "{out}");

        // relaxed-only query
        let out2 = c.explain("SELECT 'K', fno INTO ANSWER R WHERE ('J', fno) IN ANSWER R CHOOSE 1");
        assert!(out2.contains("strict = unsafe"), "{out2}");
        assert!(out2.contains("relaxed = safe"), "{out2}");

        // broken query
        let out3 = c.explain("SELECT 1");
        assert!(out3.starts_with("error:"), "{out3}");
    }

    fn pair_sql(me: &str, friend: &str) -> String {
        format!(
            "SELECT '{me}', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
             AND ('{friend}', fno) IN ANSWER Reservation CHOOSE 1"
        )
    }

    /// A console whose coordinator writes the `sys_audit` /
    /// `sys_tenant_latency` relations.
    fn audited_console() -> (TravelService, AdminConsole) {
        use youtopia_core::{AuditConfig, Coordinator, CoordinatorConfig};
        let s = TravelService::bootstrap_demo().unwrap();
        let config = CoordinatorConfig {
            audit: AuditConfig::enabled(),
            ..CoordinatorConfig::default()
        };
        let co = Coordinator::with_config(s.db().clone(), config);
        let console = AdminConsole::new(s.db().clone(), Arc::new(co.into()));
        (s, console)
    }

    #[test]
    fn audit_command_reports_disabled_by_default() {
        let (_s, c) = console();
        let out = c.execute("audit");
        assert!(out.contains("audit disabled"), "{out}");
    }

    #[test]
    fn audit_command_and_sql_surface_render_the_ledger() {
        let (_s, c) = audited_console();
        c.execute_as("kramer", &pair_sql("Kramer", "Jerry"));
        let done = c.execute_as("jerry", &pair_sql("Jerry", "Kramer"));
        assert!(done.contains("answered immediately"), "{done}");

        let audit = c.execute("audit");
        assert!(audit.contains("submit"), "{audit}");
        assert!(audit.contains("answered"), "{audit}");
        assert!(audit.contains("kramer"), "{audit}");

        // zero new query machinery: the ledger is ordinary SQL surface
        let counts = c.execute(
            "SELECT tenant, outcome, COUNT(*) AS n FROM sys_audit \
             GROUP BY tenant, outcome",
        );
        assert!(counts.contains("kramer"), "{counts}");
        assert!(counts.contains("jerry"), "{counts}");
        assert!(counts.contains("pending"), "{counts}");
        assert!(counts.contains("answered"), "{counts}");
        assert!(counts.contains("4 row(s)"), "{counts}");
    }

    #[test]
    fn latency_command_renders_the_histogram() {
        let (_s, c) = audited_console();
        c.execute_as("kramer", &pair_sql("Kramer", "Jerry"));
        c.execute_as("jerry", &pair_sql("Jerry", "Kramer"));
        let out = c.execute("latency kramer");
        assert!(out.contains("latency histogram for 'kramer'"), "{out}");
        assert!(out.contains("answered"), "{out}");
        let empty = c.execute("latency nobody");
        assert!(empty.contains("no resolved coordinations"), "{empty}");
    }

    #[test]
    fn recovery_command_renders_the_stored_report() {
        use youtopia_core::CoordinatorConfig;
        use youtopia_storage::Wal;

        let (_s, c) = console();
        assert_eq!(c.execute("recovery"), "(no recovery this session)");

        // crash a WAL-backed site mid-coordination and recover it
        // through the middle tier
        let db = Database::with_wal(Wal::in_memory());
        crate::model::install_schema(&db).unwrap();
        crate::model::seed_demo_data(&db).unwrap();
        let site = TravelService::over(db.clone()).unwrap();
        site.coordinator()
            .submit_sql("kramer", &pair_sql("Kramer", "Jerry"))
            .unwrap();
        let bytes = db.wal_bytes().unwrap();

        let (recovered, report) =
            TravelService::recover(Wal::from_bytes(bytes), CoordinatorConfig::default()).unwrap();
        assert_eq!(report.restored_pending, 1);
        let console = AdminConsole::new(recovered.db().clone(), recovered.coordinator().clone());
        console.set_recovery_report(report);
        let out = console.execute("recovery");
        assert!(out.contains("restored_pending=1"), "{out}");
        assert!(out.contains("events_replayed="), "{out}");
        assert!(out.contains("sweep_micros="), "{out}");
        assert!(console.execute("SHOW PENDING").contains("owner=kramer"));

        // the crashed site's writer counted one sync per group it wrote
        // (nothing else was committing), and the gauges line shows them
        let syncs = db.wal_syncs().unwrap();
        assert!(syncs > 0);
        assert_eq!(db.wal_groups(), Some(syncs));
        let gauges = AdminConsole::new(db.clone(), site.coordinator().clone()).execute("gauges");
        assert!(
            gauges.contains(&format!("wal_syncs={syncs} wal_groups={syncs}")),
            "{gauges}"
        );
    }

    #[test]
    fn gauges_command_renders_log_surface_gauges() {
        let (_s, c) = console();
        let out = c.execute("gauges");
        assert!(out.contains("wal_bytes="), "{out}");
        assert!(out.contains("checkpoint_age_millis="), "{out}");
        assert!(out.contains("wal_syncs=0 wal_groups=0"), "{out}");
        assert!(out.contains("pending=0"), "{out}");
    }

    #[test]
    fn result_table_alignment() {
        let (_s, c) = console();
        let out = c.execute("SELECT fno, dest, price FROM Flights ORDER BY fno LIMIT 2");
        let lines: Vec<&str> = out.lines().collect();
        // header + separators + 2 data rows + count
        assert!(lines.len() >= 6);
        let widths: std::collections::HashSet<usize> = lines
            .iter()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.len())
            .collect();
        assert_eq!(widths.len(), 1, "all table lines share one width: {out}");
    }
}
