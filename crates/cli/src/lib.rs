#![warn(missing_docs)]

//! # rasql-cli
//!
//! The interactive RaSQL shell (`rasql-shell`): a line-oriented REPL over
//! [`rasql_core::RaSqlContext`]. SQL statements end with `;`; backslash
//! commands control the session:
//!
//! | command | effect |
//! |---|---|
//! | `\d` | list tables |
//! | `\load <name> <path> <schema>` | load a text file (`schema` like `int,int,double`) |
//! | `\gen <name> rmat\|grid\|tree <n>` | generate a synthetic table |
//! | `\explain <sql>` | show the compiled (clique + final) plan |
//! | `\prem <sql>` | run the PreM auto-validation (Appendix G) |
//! | `\timing on\|off` | toggle per-query timing |
//! | `\tracing on\|off` | collect a [`rasql_core::QueryTrace`] per query |
//! | `\trace [json]` | show (or export as JSON) the last query's trace |
//! | `\workers <n>` | restart the session with n workers |
//! | `\fault [spec\|off]` | show/set/clear deterministic fault injection (e.g. `\fault kill=0.1,seed=7 retries=2 checkpoint=3`) |
//! | `\limits [budget=BYTES] [timeout=MS]` | show/set the per-query memory budget and deadline (0 = off; restarts the session) |
//! | `\kill <query-id>` | cooperatively cancel a running query (ids from `QueryStats::query_id` / `\running`) |
//! | `\running` | list active query ids and admission queue depth |
//! | `\connect <host:port>` | switch to a remote `rasql-server` (SQL, `\d`, `\gen`, `\load`, `\kill`, `\running`, `\metrics` go over the wire) |
//! | `\disconnect` | close the remote session, back to the local engine |
//! | `\metrics` | engine metrics in Prometheus text format (local or remote) |
//! | `\q` | quit |
//!
//! `EXPLAIN [ANALYZE] <query>;` works as plain SQL: `EXPLAIN` prints the
//! compiled plan, `EXPLAIN ANALYZE` executes the query and annotates the
//! plan with live row/byte/iteration counters.
//!
//! The REPL machinery lives in this library crate so it is unit-testable; the
//! binary is a thin stdin/stdout wrapper.

use rasql_core::{PremChecker, QueryResult, RaSqlContext};
use rasql_datagen::{rmat, tree_hierarchy, RmatConfig, TreeConfig};
use rasql_storage::{DataType, Relation, Schema};
use std::path::Path;

/// Outcome of feeding one line to the shell.
#[derive(Debug, PartialEq, Eq)]
pub enum LineResult {
    /// Output to print.
    Output(String),
    /// Input incomplete (multi-line statement in progress).
    Continue,
    /// Exit requested.
    Quit,
}

/// The shell session: a context plus REPL state.
pub struct Shell {
    ctx: RaSqlContext,
    buffer: String,
    timing: bool,
    /// The most recent statement's result (for `\trace`).
    last: Option<QueryResult>,
    /// When connected (`\connect`), SQL and catalog commands go over the
    /// wire to a `rasql-server` instead of the local context.
    remote: Option<rasql_client::Client>,
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

impl Shell {
    /// A shell with the default engine configuration.
    pub fn new() -> Self {
        Shell::with_context(RaSqlContext::in_memory())
    }

    /// A shell over a context built from an explicit configuration. Session
    /// restarts (`\workers`, `\fault`, `\limits`) rebuild from that
    /// context's configuration, so they keep its other settings.
    pub fn with_context(ctx: RaSqlContext) -> Self {
        Shell {
            ctx,
            buffer: String::new(),
            timing: false,
            last: None,
            remote: None,
        }
    }

    /// Access the underlying context (for scripted use).
    pub fn context(&self) -> &RaSqlContext {
        &self.ctx
    }

    /// Whether the shell is talking to a remote server (`\connect`).
    pub fn is_remote(&self) -> bool {
        self.remote.is_some()
    }

    /// Connect to a `rasql-server`; subsequent SQL and catalog commands go
    /// over the wire. Returns the banner to print. Exposed for the binary's
    /// `--connect` flag; the `\connect` command routes here too.
    pub fn connect(&mut self, addr: &str) -> Result<String, String> {
        let client = rasql_client::Client::connect(addr).map_err(|e| e.to_string())?;
        let banner = format!(
            "connected to {} at {addr} (\\disconnect to return to the local session)\n",
            client.server()
        );
        self.remote = Some(client);
        Ok(banner)
    }

    /// Feed one input line.
    pub fn feed(&mut self, line: &str) -> LineResult {
        let trimmed = line.trim();
        if self.buffer.is_empty() && trimmed.starts_with('\\') {
            return self.command(trimmed);
        }
        self.buffer.push_str(line);
        self.buffer.push('\n');
        if !trimmed.ends_with(';') {
            return LineResult::Continue;
        }
        let sql = std::mem::take(&mut self.buffer);
        LineResult::Output(self.run_sql(&sql))
    }

    fn run_sql(&mut self, sql: &str) -> String {
        if self.remote.is_some() {
            return self.run_sql_remote(sql);
        }
        let start = std::time::Instant::now();
        match self.ctx.query_script(sql) {
            Ok(results) => {
                let mut out = String::new();
                for result in &results {
                    if result.relation.schema().arity() == 0 {
                        out.push_str("ok\n");
                    } else {
                        out.push_str(&result.relation.pretty(40));
                    }
                }
                if self.timing {
                    if let Some(last) = results.last() {
                        out.push_str(&format!(
                            "time: {:?}  iterations: {:?}\n",
                            start.elapsed(),
                            last.stats.iterations
                        ));
                    }
                }
                self.last = results.into_iter().next_back();
                out
            }
            Err(e) => format!("error: {e}\n"),
        }
    }

    /// Run SQL over the wire. Rows stream back in batches and reassemble
    /// into relations client-side — the same render path as local results,
    /// because the wire types *are* the storage types.
    fn run_sql_remote(&mut self, sql: &str) -> String {
        let start = std::time::Instant::now();
        let client = self.remote.as_mut().expect("checked by run_sql");
        match client.query(sql) {
            Ok(results) => {
                let mut out = String::new();
                for result in &results {
                    if result.schema.arity() == 0 {
                        out.push_str("ok\n");
                    } else {
                        out.push_str(
                            &Relation::from_shared(result.schema.clone(), result.rows.clone())
                                .pretty(40),
                        );
                    }
                }
                if self.timing {
                    if let Some(last) = results.last() {
                        out.push_str(&format!(
                            "time: {:?}  iterations: {}  server: {:.3} ms\n",
                            start.elapsed(),
                            last.stats.iterations,
                            last.stats.elapsed_us as f64 / 1000.0
                        ));
                    }
                }
                out
            }
            Err(e) => self.remote_error(&e),
        }
    }

    /// Render a wire error; a dead transport also drops the connection and
    /// falls back to the local session.
    fn remote_error(&mut self, e: &rasql_api::ApiError) -> String {
        use rasql_api::ErrorCode;
        if matches!(
            e.code,
            ErrorCode::ConnectionClosed | ErrorCode::Io | ErrorCode::ServerShutdown
        ) {
            self.remote = None;
            format!("{e}\nconnection lost; back to the local session\n")
        } else {
            format!("{e}\n")
        }
    }

    fn command(&mut self, cmd: &str) -> LineResult {
        let parts: Vec<&str> = cmd.split_whitespace().collect();
        // These inspect or rebuild the *local* engine; connected to a
        // server they would silently answer about the wrong session.
        const LOCAL_ONLY: &[&str] = &[
            "\\workers",
            "\\fault",
            "\\limits",
            "\\tracing",
            "\\trace",
            "\\explain",
            "\\prem",
            "\\lint",
        ];
        if self.remote.is_some() && LOCAL_ONLY.contains(&parts[0]) {
            return LineResult::Output(format!(
                "{} is local-only; \\disconnect first (EXPLAIN still works as plain SQL)\n",
                parts[0]
            ));
        }
        match parts[0] {
            "\\q" | "\\quit" => LineResult::Quit,
            "\\connect" => match parts.get(1) {
                Some(addr) => {
                    let addr = (*addr).to_string();
                    match self.connect(&addr) {
                        Ok(banner) => LineResult::Output(banner),
                        Err(e) => LineResult::Output(format!("error: {e}\n")),
                    }
                }
                None => LineResult::Output("usage: \\connect <host:port>\n".into()),
            },
            "\\disconnect" => match self.remote.take() {
                Some(client) => {
                    let _ = client.close();
                    LineResult::Output("disconnected; back to the local session\n".into())
                }
                None => LineResult::Output("not connected\n".into()),
            },
            "\\metrics" => match &mut self.remote {
                Some(client) => match client.metrics() {
                    Ok(text) => LineResult::Output(text),
                    Err(e) => LineResult::Output(self.remote_error(&e)),
                },
                None => LineResult::Output(self.ctx.metrics().prometheus_text()),
            },
            "\\d" => {
                let names = match &mut self.remote {
                    Some(client) => match client.status() {
                        Ok(status) => status.tables,
                        Err(e) => return LineResult::Output(self.remote_error(&e)),
                    },
                    None => self.ctx.table_names(),
                };
                if names.is_empty() {
                    LineResult::Output("no tables\n".into())
                } else {
                    LineResult::Output(names.join("\n") + "\n")
                }
            }
            "\\views" => {
                let views = match &mut self.remote {
                    Some(client) => match client.views() {
                        Ok(views) => views,
                        Err(e) => return LineResult::Output(self.remote_error(&e)),
                    },
                    None => self.ctx.view_infos(),
                };
                if views.is_empty() {
                    return LineResult::Output("no materialized views\n".into());
                }
                let mut out = String::from("name | version | stale | retained | last refresh\n");
                for v in &views {
                    out.push_str(&format!(
                        "{} | {} | {} | {} B | {}\n",
                        v.name,
                        v.version,
                        if v.stale { "stale" } else { "fresh" },
                        v.retained_bytes,
                        v.last_refresh,
                    ));
                }
                LineResult::Output(out)
            }
            "\\durability" => {
                let status = match &mut self.remote {
                    Some(client) => match client.durability() {
                        Ok(status) => status,
                        Err(e) => return LineResult::Output(self.remote_error(&e)),
                    },
                    None => self.ctx.durability_status(),
                };
                LineResult::Output(match status {
                    Some(s) => format!(
                        "data dir: {}\nwal: {} records / {} B\nsnapshots: {} (last {} B)\n",
                        s.data_dir, s.wal_records, s.wal_bytes, s.snapshots, s.last_snapshot_bytes,
                    ),
                    None => "in-memory (no data directory; state is lost on exit)\n".into(),
                })
            }
            "\\timing" => {
                self.timing = parts.get(1) != Some(&"off");
                LineResult::Output(format!(
                    "timing {}\n",
                    if self.timing { "on" } else { "off" }
                ))
            }
            "\\tracing" => {
                let on = parts.get(1) != Some(&"off");
                self.ctx.set_tracing(on);
                LineResult::Output(format!("tracing {}\n", if on { "on" } else { "off" }))
            }
            "\\trace" => {
                let json = parts.get(1) == Some(&"json");
                match self.last.as_ref().and_then(|r| r.trace.as_ref()) {
                    Some(trace) => LineResult::Output(if json {
                        trace.to_json() + "\n"
                    } else {
                        trace.render()
                    }),
                    None => LineResult::Output(
                        "no trace recorded (enable with \\tracing on, then run a query; \
                         or use EXPLAIN ANALYZE)\n"
                            .into(),
                    ),
                }
            }
            "\\workers" => match parts.get(1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => {
                    self.ctx = self.ctx.config().clone().workers(n).build();
                    LineResult::Output(format!("restarted with {n} workers (tables cleared)\n"))
                }
                None => LineResult::Output("usage: \\workers <n>\n".into()),
            },
            "\\fault" => self.fault(&parts),
            "\\limits" => self.limits(&parts),
            "\\kill" => match parts.get(1).and_then(|s| s.parse::<u64>().ok()) {
                Some(id) => {
                    let found = match &mut self.remote {
                        Some(client) => match client.kill(id) {
                            Ok(found) => found,
                            Err(e) => return LineResult::Output(self.remote_error(&e)),
                        },
                        None => self.ctx.kill(id),
                    };
                    if found {
                        LineResult::Output(format!("cancellation requested for query {id}\n"))
                    } else {
                        LineResult::Output(format!("no active query {id}\n"))
                    }
                }
                None => {
                    let active = match &mut self.remote {
                        Some(client) => match client.status() {
                            Ok(status) => status.active_queries,
                            Err(e) => return LineResult::Output(self.remote_error(&e)),
                        },
                        None => self.ctx.active_queries(),
                    };
                    if active.is_empty() {
                        LineResult::Output("usage: \\kill <query-id> (no active queries)\n".into())
                    } else {
                        let ids: Vec<String> = active
                            .iter()
                            .map(std::string::ToString::to_string)
                            .collect();
                        LineResult::Output(format!(
                            "usage: \\kill <query-id> (active: {})\n",
                            ids.join(", ")
                        ))
                    }
                }
            },
            "\\running" => {
                let (active, running, waiting, sessions, index_store) = match &mut self.remote {
                    Some(client) => match client.status() {
                        Ok(s) => (
                            s.active_queries,
                            s.running as usize,
                            s.waiting as usize,
                            Some(s.sessions),
                            s.index_store,
                        ),
                        Err(e) => return LineResult::Output(self.remote_error(&e)),
                    },
                    None => (
                        self.ctx.active_queries(),
                        self.ctx.running_queries(),
                        self.ctx.waiting_queries(),
                        None,
                        self.ctx.index_stats().to_string(),
                    ),
                };
                let ids: Vec<String> = active
                    .iter()
                    .map(std::string::ToString::to_string)
                    .collect();
                let mut out = format!(
                    "active queries: [{}]  running: {running}  waiting: {waiting}",
                    ids.join(", ")
                );
                if let Some(n) = sessions {
                    out.push_str(&format!("  sessions: {n}"));
                }
                out.push_str(&format!("\nindex store: {index_store}\n"));
                LineResult::Output(out)
            }
            "\\load" => self.load(&parts),
            "\\gen" => self.generate(&parts),
            "\\explain" => {
                let sql = cmd.trim_start_matches("\\explain").trim();
                match self.ctx.explain(sql) {
                    Ok(plan) => LineResult::Output(plan),
                    Err(e) => LineResult::Output(format!("error: {e}\n")),
                }
            }
            "\\prem" => {
                let sql = cmd.trim_start_matches("\\prem").trim();
                match PremChecker::new(&self.ctx).check(sql) {
                    Ok(outcome) => LineResult::Output(format!("{outcome:?}\n")),
                    Err(e) => LineResult::Output(format!("error: {e}\n")),
                }
            }
            "\\lint" => {
                let sql = cmd.trim_start_matches("\\lint").trim();
                if sql.is_empty() {
                    return LineResult::Output(
                        "usage: \\lint <query> — static verification (same as CHECK <query>).\n\
                         Emits RA#### query diagnostics.\n"
                            .into(),
                    );
                }
                match self.ctx.lint_script(sql) {
                    Ok(reports) => {
                        let mut out = String::new();
                        for r in reports {
                            out.push_str(&r.rendered);
                        }
                        LineResult::Output(out)
                    }
                    Err(e) => LineResult::Output(format!("error: {e}\n")),
                }
            }
            other => LineResult::Output(format!(
                "unknown command '{other}' (try \\d, \\views, \\durability, \\load, \\gen, \
                 \\explain, \\lint, \\prem, \\timing, \\tracing, \\trace, \\fault, \\limits, \
                 \\kill, \\running, \\connect, \\disconnect, \\metrics, \\q)\n"
            )),
        }
    }

    /// `\fault` — show, set, or clear deterministic fault injection. Setting
    /// or clearing restarts the session (the simulated cluster is immutable
    /// once its workers are spawned), so tables are cleared.
    fn fault(&mut self, parts: &[&str]) -> LineResult {
        match parts.get(1) {
            None => LineResult::Output(match &self.ctx.config().fault_spec {
                Some(spec) => format!(
                    "fault injection: {spec} (retries={}, checkpoint every {} rounds)\n",
                    self.ctx.config().max_task_retries,
                    self.ctx.config().checkpoint_interval
                ),
                None => "fault injection off \
                         (usage: \\fault kill=0.1[,loss=P][,delay=P][,delay_us=N][,seed=N] \
                         [retries=N] [checkpoint=K] | \\fault off)\n"
                    .into(),
            }),
            Some(&"off") => {
                self.ctx = self.ctx.config().clone().faults(None).build();
                LineResult::Output(
                    "fault injection off (session restarted, tables cleared)\n".into(),
                )
            }
            Some(_) => {
                // `retries=` and `checkpoint=` belong to the engine, not the
                // spec; peel them off before handing the rest to the parser.
                let mut spec_tokens: Vec<&str> = Vec::new();
                let mut retries = self.ctx.config().max_task_retries;
                let mut checkpoint = self.ctx.config().checkpoint_interval;
                for token in &parts[1..] {
                    if let Some(v) = token.strip_prefix("retries=") {
                        match v.parse() {
                            Ok(n) => retries = n,
                            Err(e) => {
                                return LineResult::Output(format!(
                                    "error: bad retries '{v}': {e}\n"
                                ))
                            }
                        }
                    } else if let Some(v) = token.strip_prefix("checkpoint=") {
                        match v.parse() {
                            Ok(k) => checkpoint = k,
                            Err(e) => {
                                return LineResult::Output(format!(
                                    "error: bad checkpoint '{v}': {e}\n"
                                ))
                            }
                        }
                    } else {
                        spec_tokens.push(token);
                    }
                }
                match rasql_exec::FaultSpec::parse(&spec_tokens.join(",")) {
                    Ok(spec) => {
                        self.ctx = self
                            .ctx
                            .config()
                            .clone()
                            .faults(Some(spec))
                            .max_task_retries(retries)
                            .checkpoint_interval(checkpoint)
                            .build();
                        LineResult::Output(format!(
                            "fault injection: {spec} (retries={retries}, checkpoint every \
                             {checkpoint} rounds; session restarted, tables cleared)\n"
                        ))
                    }
                    Err(e) => LineResult::Output(format!("error: {e}\n")),
                }
            }
        }
    }

    /// `\limits` — show or set the per-query resource limits. Setting restarts
    /// the session (the governor configuration is baked into the context), so
    /// tables are cleared.
    fn limits(&mut self, parts: &[&str]) -> LineResult {
        if parts.len() == 1 {
            return LineResult::Output(format!(
                "memory budget: {} bytes, timeout: {} ms (0 = unlimited; \
                 usage: \\limits [budget=BYTES] [timeout=MS])\n",
                self.ctx.config().memory_budget,
                self.ctx.config().query_timeout_ms
            ));
        }
        let mut budget = self.ctx.config().memory_budget;
        let mut timeout = self.ctx.config().query_timeout_ms;
        for token in &parts[1..] {
            if let Some(v) = token.strip_prefix("budget=") {
                match v.parse() {
                    Ok(b) => budget = b,
                    Err(e) => return LineResult::Output(format!("error: bad budget '{v}': {e}\n")),
                }
            } else if let Some(v) = token.strip_prefix("timeout=") {
                match v.parse() {
                    Ok(t) => timeout = t,
                    Err(e) => {
                        return LineResult::Output(format!("error: bad timeout '{v}': {e}\n"))
                    }
                }
            } else {
                return LineResult::Output(format!(
                    "error: unknown limit '{token}' (usage: \\limits [budget=BYTES] [timeout=MS])\n"
                ));
            }
        }
        self.ctx = self
            .ctx
            .config()
            .clone()
            .memory_budget(budget)
            .query_timeout_ms(timeout)
            .build();
        LineResult::Output(format!(
            "memory budget: {budget} bytes, timeout: {timeout} ms \
             (session restarted, tables cleared)\n"
        ))
    }

    fn load(&mut self, parts: &[&str]) -> LineResult {
        let (Some(name), Some(path), Some(types)) = (parts.get(1), parts.get(2), parts.get(3))
        else {
            return LineResult::Output("usage: \\load <name> <path> <int,double,str,...>\n".into());
        };
        let schema = match parse_schema(types) {
            Ok(s) => s,
            Err(e) => return LineResult::Output(format!("error: {e}\n")),
        };
        match Relation::load_text(Path::new(path), schema) {
            Ok(rel) => {
                let n = rel.len();
                match self.install(name, rel) {
                    Ok(()) => LineResult::Output(format!("loaded {n} rows into '{name}'\n")),
                    Err(e) => LineResult::Output(e),
                }
            }
            Err(e) => LineResult::Output(format!("error: {e}\n")),
        }
    }

    /// Register a table where the session lives: the remote server's shared
    /// catalog when connected, the local context otherwise.
    fn install(&mut self, name: &str, rel: Relation) -> Result<(), String> {
        match &mut self.remote {
            Some(client) => {
                let schema = rel.schema().clone();
                let rows = rel.rows().to_vec();
                match client.register(name, schema, rows) {
                    Ok(_) => Ok(()),
                    Err(e) => Err(self.remote_error(&e)),
                }
            }
            None => self
                .ctx
                .register_or_replace(name, rel)
                .map_err(|e| format!("error: {e}\n")),
        }
    }

    fn generate(&mut self, parts: &[&str]) -> LineResult {
        let (Some(name), Some(kind), Some(n)) = (parts.get(1), parts.get(2), parts.get(3)) else {
            return LineResult::Output("usage: \\gen <name> rmat|rmatw|grid|tree <n>\n".into());
        };
        let Ok(n) = n.parse::<usize>() else {
            return LineResult::Output("error: size must be an integer\n".into());
        };
        let rel = match *kind {
            "rmat" => rmat(n, RmatConfig::default(), 42),
            "rmatw" => rmat(
                n,
                RmatConfig {
                    weighted: true,
                    ..Default::default()
                },
                42,
            ),
            "grid" => rasql_datagen::grid(n, false, 42),
            "tree" => {
                let t = tree_hierarchy(
                    TreeConfig {
                        target_nodes: n,
                        ..Default::default()
                    },
                    42,
                );
                if let Err(e) = self.install(&format!("{name}_basic"), t.basic) {
                    return LineResult::Output(e);
                }
                if let Err(e) = self.install(&format!("{name}_report"), t.report) {
                    return LineResult::Output(e);
                }
                t.assbl
            }
            other => {
                return LineResult::Output(format!(
                    "unknown generator '{other}' (rmat|rmatw|grid|tree)\n"
                ))
            }
        };
        let rows = rel.len();
        match self.install(name, rel) {
            Ok(()) => LineResult::Output(format!("generated {rows} rows into '{name}'\n")),
            Err(e) => LineResult::Output(e),
        }
    }
}

/// Parse a `int,double,str,bool` column-type list into a schema with
/// `c0..cN` column names.
pub fn parse_schema(spec: &str) -> Result<Schema, String> {
    let mut fields = Vec::new();
    for (i, t) in spec.split(',').enumerate() {
        let dt = match t.trim().to_ascii_lowercase().as_str() {
            "int" | "i64" => DataType::Int,
            "double" | "f64" | "float" => DataType::Double,
            "str" | "string" | "text" => DataType::Str,
            "bool" => DataType::Bool,
            other => return Err(format!("unknown type '{other}'")),
        };
        fields.push((format!("c{i}"), dt));
    }
    if fields.is_empty() {
        return Err("empty schema".into());
    }
    Ok(Schema::new(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_line_statement_and_query() {
        let mut sh = Shell::new();
        assert_eq!(
            sh.feed("\\gen g rmat 100"),
            LineResult::Output("generated 1000 rows into 'g'\n".into())
        );
        assert_eq!(sh.feed("SELECT count(*)"), LineResult::Continue);
        match sh.feed("FROM g;") {
            LineResult::Output(o) => assert!(o.contains("1000"), "{o}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn recursive_query_through_shell() {
        let mut sh = Shell::new();
        sh.feed("\\gen g rmat 50");
        match sh.feed(
            "WITH recursive tc (Src, Dst) AS (SELECT Src, Dst FROM g) UNION \
             (SELECT tc.Src, g.Dst FROM tc, g WHERE tc.Dst = g.Src) \
             SELECT count(*) FROM tc;",
        ) {
            LineResult::Output(o) => assert!(!o.contains("error"), "{o}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn commands() {
        let mut sh = Shell::new();
        assert_eq!(sh.feed("\\q"), LineResult::Quit);
        match sh.feed("\\d") {
            LineResult::Output(o) => assert_eq!(o, "no tables\n"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\timing on") {
            LineResult::Output(o) => assert_eq!(o, "timing on\n"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\nope") {
            LineResult::Output(o) => assert!(o.contains("unknown command"), "{o}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn durability_command_reports_in_memory() {
        let mut sh = Shell::new();
        match sh.feed("\\durability") {
            LineResult::Output(o) => assert!(o.contains("in-memory"), "{o}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn views_command_lifecycle() {
        let mut sh = Shell::new();
        match sh.feed("\\views") {
            LineResult::Output(o) => assert_eq!(o, "no materialized views\n"),
            other => panic!("{other:?}"),
        }
        sh.feed("\\gen g rmat 50");
        match sh.feed(
            "CREATE MATERIALIZED VIEW t AS WITH recursive tc (Src, Dst) AS \
             (SELECT Src, Dst FROM g) UNION \
             (SELECT tc.Src, g.Dst FROM tc, g WHERE tc.Dst = g.Src) \
             SELECT Src, Dst FROM tc;",
        ) {
            LineResult::Output(o) => assert!(o.contains("materialized view 't'"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\views") {
            LineResult::Output(o) => {
                assert!(
                    o.starts_with("name | version | stale | retained | last refresh\n"),
                    "{o}"
                );
                assert!(o.contains("t | 1 | fresh |"), "{o}");
            }
            other => panic!("{other:?}"),
        }
        sh.feed("INSERT INTO g VALUES (9999, 1);");
        match sh.feed("\\views") {
            LineResult::Output(o) => assert!(o.contains("t | 1 | stale |"), "{o}"),
            other => panic!("{other:?}"),
        }
        sh.feed("REFRESH MATERIALIZED VIEW t;");
        match sh.feed("\\views") {
            LineResult::Output(o) => {
                assert!(o.contains("t | 2 | fresh |"), "{o}");
                assert!(o.contains("incremental"), "{o}");
            }
            other => panic!("{other:?}"),
        }
        sh.feed("DROP MATERIALIZED VIEW t;");
        match sh.feed("\\views") {
            LineResult::Output(o) => assert_eq!(o, "no materialized views\n"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tracing_and_trace_commands() {
        let mut sh = Shell::new();
        match sh.feed("\\trace") {
            LineResult::Output(o) => assert!(o.contains("no trace recorded"), "{o}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            sh.feed("\\tracing on"),
            LineResult::Output("tracing on\n".into())
        );
        sh.feed("\\gen g rmat 50");
        sh.feed(
            "WITH recursive tc (Src, Dst) AS (SELECT Src, Dst FROM g) UNION \
             (SELECT tc.Src, g.Dst FROM tc, g WHERE tc.Dst = g.Src) \
             SELECT count(*) FROM tc;",
        );
        match sh.feed("\\trace") {
            LineResult::Output(o) => assert!(o.contains("Fixpoint"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\trace json") {
            LineResult::Output(o) => {
                assert!(o.starts_with('{') && o.contains("\"cliques\""), "{o}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            sh.feed("\\tracing off"),
            LineResult::Output("tracing off\n".into())
        );
    }

    #[test]
    fn explain_analyze_through_shell() {
        let mut sh = Shell::new();
        sh.feed("\\gen g rmat 50");
        match sh.feed(
            "EXPLAIN ANALYZE WITH recursive tc (Src, Dst) AS (SELECT Src, Dst FROM g) UNION \
             (SELECT tc.Src, g.Dst FROM tc, g WHERE tc.Dst = g.Src) \
             SELECT count(*) FROM tc;",
        ) {
            LineResult::Output(o) => {
                assert!(o.contains("rows="), "{o}");
                assert!(o.contains("iter"), "{o}");
            }
            other => panic!("{other:?}"),
        }
        // EXPLAIN ANALYZE leaves the trace behind for \trace.
        match sh.feed("\\trace") {
            LineResult::Output(o) => assert!(o.contains("Fixpoint"), "{o}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explain_and_prem_commands() {
        let mut sh = Shell::new();
        sh.feed("\\gen g rmatw 50");
        match sh.feed(
            "\\explain WITH recursive r (Dst, min() AS C) AS (SELECT 1, 0.0) UNION \
             (SELECT g.Dst, r.C + g.Cost FROM r, g WHERE r.Dst = g.Src) SELECT Dst, C FROM r",
        ) {
            LineResult::Output(o) => assert!(o.contains("RecursiveClique"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed(
            "\\prem WITH recursive r (Dst, min() AS C) AS (SELECT 1, 0.0) UNION \
             (SELECT g.Dst, r.C + g.Cost FROM r, g WHERE r.Dst = g.Src) SELECT Dst, C FROM r",
        ) {
            LineResult::Output(o) => {
                assert!(o.contains("Holds") || o.contains("HeldWithinBound"), "{o}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lint_command_reports_verdict() {
        let mut sh = Shell::new();
        sh.feed("\\gen g rmatw 50");
        match sh.feed("\\lint") {
            LineResult::Output(o) => assert!(o.contains("usage"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed(
            "\\lint WITH recursive r (Dst, min() AS C) AS (SELECT 1, 0.0) UNION \
             (SELECT g.Dst, r.C + g.Cost FROM r, g WHERE r.Dst = g.Src) SELECT Dst, C FROM r",
        ) {
            LineResult::Output(o) => {
                assert!(o.contains("PreM evidence"), "{o}");
                assert!(o.contains("CHECK: pass"), "{o}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fault_command_round_trip() {
        let mut sh = Shell::new();
        match sh.feed("\\fault") {
            LineResult::Output(o) => assert!(o.contains("fault injection off"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\fault kill=0.25,seed=7 retries=5 checkpoint=2") {
            LineResult::Output(o) => {
                assert!(o.contains("kill=0.25"), "{o}");
                assert!(o.contains("retries=5"), "{o}");
                assert!(o.contains("checkpoint every 2 rounds"), "{o}");
            }
            other => panic!("{other:?}"),
        }
        // Queries still return correct results under injected faults.
        sh.feed("\\gen g rmat 100");
        match sh.feed("SELECT count(*) FROM g;") {
            LineResult::Output(o) => assert!(o.contains("1000"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\fault") {
            LineResult::Output(o) => assert!(o.contains("kill=0.25"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\fault off") {
            LineResult::Output(o) => assert!(o.contains("fault injection off"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\fault kill=notanumber") {
            LineResult::Output(o) => assert!(o.contains("error"), "{o}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn kill_and_running_commands() {
        let mut sh = Shell::new();
        match sh.feed("\\kill") {
            LineResult::Output(o) => assert!(o.contains("usage: \\kill"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\kill 999") {
            LineResult::Output(o) => assert!(o.contains("no active query 999"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\kill notanumber") {
            LineResult::Output(o) => assert!(o.contains("usage"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\running") {
            LineResult::Output(o) => {
                assert!(o.contains("active queries: []"), "{o}");
                assert!(o.contains("running: 0"), "{o}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limits_command_round_trip() {
        let mut sh = Shell::new();
        match sh.feed("\\limits") {
            LineResult::Output(o) => {
                assert!(o.contains("memory budget: 0 bytes"), "{o}");
                assert!(o.contains("timeout: 0 ms"), "{o}");
            }
            other => panic!("{other:?}"),
        }
        match sh.feed("\\limits budget=1048576 timeout=5000") {
            LineResult::Output(o) => {
                assert!(o.contains("memory budget: 1048576 bytes"), "{o}");
                assert!(o.contains("timeout: 5000 ms"), "{o}");
            }
            other => panic!("{other:?}"),
        }
        // The restarted session still answers queries under the new limits.
        sh.feed("\\gen g rmat 100");
        match sh.feed("SELECT count(*) FROM g;") {
            LineResult::Output(o) => assert!(o.contains("1000"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\limits budget=bad") {
            LineResult::Output(o) => assert!(o.contains("error"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\limits nonsense=1") {
            LineResult::Output(o) => assert!(o.contains("unknown limit"), "{o}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn load_round_trip() {
        let dir = std::env::temp_dir().join("rasql_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        std::fs::write(&path, "1 2\n2 3\n").unwrap();
        let mut sh = Shell::new();
        match sh.feed(&format!("\\load e {} int,int", path.display())) {
            LineResult::Output(o) => assert!(o.contains("loaded 2 rows"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("SELECT count(*) FROM e;") {
            LineResult::Output(o) => assert!(o.contains('2'), "{o}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn schema_parsing() {
        assert!(parse_schema("int,double,str,bool").is_ok());
        assert!(parse_schema("nope").is_err());
        assert!(parse_schema("").is_err());
    }

    #[test]
    fn remote_mode_round_trip() {
        let ctx = std::sync::Arc::new(rasql_core::RaSqlContext::builder().workers(2).build());
        let server = rasql_server::serve(ctx, "127.0.0.1:0").unwrap();

        let mut sh = Shell::new();
        match sh.feed(&format!("\\connect {}", server.addr())) {
            LineResult::Output(o) => assert!(o.contains("connected to rasql-server/"), "{o}"),
            other => panic!("{other:?}"),
        }
        assert!(sh.is_remote());

        // \gen registers on the server; SQL runs over the wire.
        assert_eq!(
            sh.feed("\\gen g rmat 100"),
            LineResult::Output("generated 1000 rows into 'g'\n".into())
        );
        match sh.feed("\\d") {
            LineResult::Output(o) => assert!(o.contains('g'), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed(
            "WITH recursive tc (Src, Dst) AS (SELECT Src, Dst FROM g) UNION \
             (SELECT tc.Src, g.Dst FROM tc, g WHERE tc.Dst = g.Src) \
             SELECT count(*) FROM tc;",
        ) {
            LineResult::Output(o) => assert!(!o.contains("error"), "{o}"),
            other => panic!("{other:?}"),
        }
        // Errors carry the server's stable codes and don't kill the session.
        match sh.feed("SELECT * FROM missing;") {
            LineResult::Output(o) => assert!(o.contains("RA0400"), "{o}"),
            other => panic!("{other:?}"),
        }
        // Local-only commands are refused while connected.
        match sh.feed("\\workers 4") {
            LineResult::Output(o) => assert!(o.contains("local-only"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\metrics") {
            LineResult::Output(o) => assert!(o.contains("# TYPE rasql_stages_total"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\running") {
            LineResult::Output(o) => assert!(o.contains("sessions: 1"), "{o}"),
            other => panic!("{other:?}"),
        }
        match sh.feed("\\disconnect") {
            LineResult::Output(o) => assert!(o.contains("disconnected"), "{o}"),
            other => panic!("{other:?}"),
        }
        assert!(!sh.is_remote());
        // The local session is intact (and has no 'g' — that lives on the
        // server).
        assert_eq!(sh.feed("\\d"), LineResult::Output("no tables\n".into()));
        assert!(server.shutdown());
    }

    #[test]
    fn local_metrics_command() {
        let mut sh = Shell::new();
        sh.feed("\\gen g rmat 50");
        sh.feed("SELECT count(*) FROM g;");
        match sh.feed("\\metrics") {
            LineResult::Output(o) => assert!(o.contains("# TYPE rasql_stages_total"), "{o}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sql_error_is_reported_not_fatal() {
        let mut sh = Shell::new();
        match sh.feed("SELECT broken FROM nowhere;") {
            LineResult::Output(o) => assert!(o.contains("error"), "{o}"),
            other => panic!("{other:?}"),
        }
        // Shell still usable.
        assert_eq!(sh.feed("\\d"), LineResult::Output("no tables\n".into()));
    }
}
