//! What every experiment's `main` used to do by hand, once: the argv
//! parser, the per-experiment [`Ctx`] (scale, sweep, telemetry, the
//! results writer and table renderer, acceptance gates) and the exit
//! status.
//!
//! `exp <name>… | all | list [--paper | --smoke] [--check] [--threads N]`
//!
//! A row's results are shown once: [`Ctx::write`] serialises them to
//! `results/<file>`, and `render` turns that same serialised value into
//! the Markdown table printed on stdout and spliced into the row's
//! `<!-- exp:<file> -->` … `<!-- /exp -->` section of `EXPERIMENTS.md`
//! (next to `results/`), if the doc has one.
//!
//! `--check` has one meaning everywhere: regenerate, write nothing but
//! the row's wall-clock sidecar ([`Ctx::timing`]), and fail unless the
//! regenerated bytes equal the committed file and the rendered table
//! equals the doc section. Experiments with a differential twin
//! (collectives' 2-shard re-run) add it under `ctx.check`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use paraleon::sweep;
use paraleon_telemetry::export::{self, TelemetryDump};
use serde::{Serialize, Value};

use crate::Scale;

/// One row of the experiment table ([`crate::exp::ALL`]).
pub struct Experiment {
    /// Selector on the command line and stem of the one
    /// `results/<name>.json` the experiment owns.
    pub name: &'static str,
    /// One line for `exp list`.
    pub about: &'static str,
    /// Scales the experiment defines; the first is its default.
    pub scales: &'static [Scale],
    /// The experiment body.
    pub run: fn(&Ctx),
}

impl Experiment {
    /// A paper table/figure, at reduced (default) and paper scale.
    pub const fn figure(name: &'static str, about: &'static str, run: fn(&Ctx)) -> Self {
        Self {
            name,
            about,
            scales: &[Scale::Reduced, Scale::Paper],
            run,
        }
    }

    /// The results file a run at `scale` owns: `<name>.json` at the
    /// default scale, `<name>_<scale>.json` at any other — a smoke or
    /// paper run never overwrites the default.
    pub fn results_file(&self, scale: Scale) -> String {
        if scale == self.scales[0] {
            format!("{}.json", self.name)
        } else {
            format!("{}_{}.json", self.name, scale.label())
        }
    }
}

/// The parsed command line.
struct Invocation {
    /// `exp list`: print the table, run nothing.
    list: bool,
    /// Indices into the table, in table order.
    selected: Vec<usize>,
    /// `None`: each experiment's default scale.
    scale: Option<Scale>,
    check: bool,
    threads: usize,
}

fn usage(table: &[Experiment]) -> String {
    let names: Vec<&str> = table.iter().map(|e| e.name).collect();
    format!(
        "usage: exp <name>... | all | list [--paper | --smoke] [--check] [--threads N]\n\
         names: {}",
        names.join(" ")
    )
}

fn parse(table: &[Experiment], args: &[String]) -> Result<Invocation, String> {
    let mut inv = Invocation {
        list: false,
        selected: Vec::new(),
        scale: None,
        check: false,
        threads: sweep::effective_threads(usize::MAX),
    };
    let mut all = false;
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--paper" | "--smoke" if inv.scale.is_some() => {
                return Err("--paper and --smoke are exclusive".into());
            }
            "--paper" => inv.scale = Some(Scale::Paper),
            "--smoke" => inv.scale = Some(Scale::Smoke),
            "--check" => inv.check = true,
            "--threads" => {
                let n = args.next().and_then(|v| v.parse().ok());
                let n = n.filter(|&n| n > 0);
                // Clamped here, once, so the banner and `Ctx::threads`
                // say what the sweep will run.
                inv.threads =
                    sweep::effective_threads(n.ok_or("--threads needs a positive integer")?);
            }
            "all" => all = true,
            "list" => inv.list = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => match table.iter().position(|e| e.name == name) {
                Some(i) if !inv.selected.contains(&i) => inv.selected.push(i),
                Some(_) => {}
                None => return Err(format!("unknown experiment `{name}`")),
            },
        }
    }
    let has = |i: &usize| inv.scale.is_none_or(|s| table[*i].scales.contains(&s));
    match (inv.list, all, inv.selected.is_empty()) {
        (true, false, true) => {}
        // `all` is every experiment that defines the requested scale.
        (false, true, true) => inv.selected = (0..table.len()).filter(has).collect(),
        (false, false, false) => inv.selected.sort_unstable(),
        _ => return Err("give experiment names, or `all`, or `list`".into()),
    }
    if let Some(&i) = inv.selected.iter().find(|i| !has(i)) {
        let scale = inv.scale.map_or("", Scale::label);
        return Err(format!("`{}` has no {scale} scale", table[i].name));
    }
    Ok(inv)
}

/// The `exp` binary: parse `args`, run the selected rows of `table`
/// against the results directory `results`, return the exit code (0 ok,
/// 1 a gate failed, 2 usage).
pub fn run(table: &'static [Experiment], args: &[String], results: &Path) -> u8 {
    let inv = match parse(table, args) {
        Ok(inv) => inv,
        Err(msg) => {
            eprintln!("exp: {msg}\n{}", usage(table));
            return 2;
        }
    };
    if inv.list {
        for e in table {
            println!("{:<12} {}", e.name, e.about);
        }
    }
    let mut failed = Vec::new();
    let started = Instant::now();
    for exp in inv.selected.iter().map(|&i| &table[i]) {
        let row_started = Instant::now();
        let ctx = Ctx {
            scale: inv.scale.unwrap_or(exp.scales[0]),
            check: inv.check,
            threads: inv.threads,
            exp,
            results: results.to_path_buf(),
            failures: Mutex::new(Vec::new()),
            started: row_started,
            timed: AtomicBool::new(false),
        };
        let (name, scale, threads) = (exp.name, ctx.scale.label(), ctx.threads);
        println!(
            "\n=== {name}: {} ({scale} scale, {threads} thread(s)) ===",
            exp.about
        );
        // On a thread of its own, so the thread-local telemetry and audit
        // registries start fresh (`reset` keeps capacity, which table4
        // measures): `exp all` runs each row exactly as `exp <name>` does.
        let body = move || {
            (exp.run)(&ctx);
            ctx.finish()
        };
        let passed = std::thread::scope(|s| s.spawn(body).join());
        if !passed.unwrap_or_else(|p| std::panic::resume_unwind(p)) {
            failed.push(name);
        }
        println!("[{name}: {}]", wall(row_started));
    }
    if inv.selected.len() > 1 {
        println!("\n[exp: {} rows in {}]", inv.selected.len(), wall(started));
    }
    if !failed.is_empty() {
        eprintln!("\nexp: FAILED: {}", failed.join(" "));
    }
    u8::from(!failed.is_empty())
}

/// Wall time since `t0`, as `12.3 s` or `11 min 52 s`.
fn wall(t0: Instant) -> String {
    let s = t0.elapsed().as_secs_f64();
    if s < 60.0 {
        format!("{s:.1} s")
    } else {
        let s = s.round() as u64;
        format!("{} min {} s", s / 60, s % 60)
    }
}

/// Everything one experiment run may touch outside its own simulation:
/// the parsed options, the sweep, telemetry export, the results file,
/// its table and the acceptance gates.
pub struct Ctx {
    /// The scale this run was asked for.
    pub scale: Scale,
    /// `--check`: nothing is written under `results/*.json`; experiments
    /// with a differential twin run it.
    pub check: bool,
    /// Sweep worker count.
    threads: usize,
    exp: &'static Experiment,
    results: PathBuf,
    /// Failed gates. Behind a mutex so sweep cells can gate too.
    failures: Mutex<Vec<String>>,
    /// When the row began, and whether it has written its timing sidecar.
    started: Instant,
    timed: AtomicBool,
}

impl Ctx {
    /// Run `run_cell` over every cell on the sweep workers; results come
    /// back in cell order, so the JSON does not depend on the thread
    /// count.
    pub fn sweep<C, R, F>(&self, cells: Vec<C>, run_cell: F) -> Vec<R>
    where
        C: Send,
        R: Send,
        F: Fn(C) -> R + Sync,
    {
        let run_cell = &run_cell;
        let jobs = cells.into_iter().map(|c| move || run_cell(c)).collect();
        sweep::run(self.threads, jobs)
    }

    /// Acceptance gate: a false `ok` fails this experiment (and the
    /// process exit status) with `msg`.
    pub fn gate(&self, ok: bool, msg: impl Into<String>) {
        if !ok {
            let mut failures = self.failures.lock().expect("a gate panicked");
            failures.push(msg.into());
        }
    }

    /// The experiment's result rows, the one place its results leave the
    /// run: serialised to its results file ([`Experiment::results_file`])
    /// and rendered (`render`) to stdout and to that file's section of
    /// `EXPERIMENTS.md`. Under `--check` nothing is written, and the run
    /// fails unless both the file and the section reproduce.
    pub fn write<T: Serialize>(&self, rows: &T) {
        let file = self.exp.results_file(self.scale);
        let table = render(&rows.serialize_value());
        print!("\n{table}");
        self.pin(&self.results.join(&file), rows, !self.check);
        let doc = self.results.join("../EXPERIMENTS.md");
        self.fail_on(sync_section(&doc, &file, &table, self.check));
    }

    /// The one writer of the git-ignored sidecar `results/timing/<file>`:
    /// the row's wall so far, sweep width and wall-clock `columns`, on every
    /// run, `--check` included, never compared or rendered. A row calls it
    /// at most once, last; the harness passes `null` for a row that did not.
    pub fn timing<T: Serialize>(&self, columns: &T) {
        self.timed.store(true, Ordering::Relaxed);
        let wall_s = self.started.elapsed().as_secs_f64();
        let doc = Value::Object(vec![
            ("wall_s".into(), Value::Float(wall_s)),
            ("threads".into(), Value::UInt(self.threads as u64)),
            ("columns".into(), columns.serialize_value()),
        ]);
        let file = self.exp.results_file(self.scale);
        self.pin(&self.results.join("timing").join(file), &doc, true);
    }

    /// The one way a file under `results/` or `corpus/` is kept: with
    /// `write`, serialise `value` to `path`; otherwise fail unless `value`
    /// serialises to exactly the bytes committed at `path`.
    pub(crate) fn pin<T: Serialize>(&self, path: &Path, value: &T, write: bool) {
        self.fail_on(if write {
            crate::write_json_file(path, value)
                .map_err(|e| format!("{}: cannot write: {e}", path.display()))
        } else {
            reproduces(path, value)
        });
    }

    /// Sweep worker count (`--threads`, clamped to the machine).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// The results directory; `corpus/` and `EXPERIMENTS.md` sit next to it.
    pub(crate) fn results_dir(&self) -> &Path {
        &self.results
    }

    fn fail_on(&self, outcome: Result<(), String>) {
        if let Err(msg) = outcome {
            self.gate(false, msg);
        }
    }

    /// Start a telemetry-instrumented cell on this thread: clears any
    /// previous recording and turns the registry on.
    pub fn telemetry_begin(&self) {
        paraleon_telemetry::reset();
        paraleon_telemetry::set_enabled(true);
    }

    /// Finish the instrumented cell `cell`: export this thread's registry
    /// to `results/telemetry/<experiment>_<cell>.jsonl`, clear it and turn
    /// it off again (a later cell on this thread must not run
    /// instrumented), and return the dump read back from disk —
    /// experiments build their rows from this, so the JSONL on disk is
    /// exactly what they used.
    pub fn telemetry_dump(&self, cell: &str) -> TelemetryDump {
        let keep = |c: char| c.is_ascii_alphanumeric() || c == '-';
        let file: String = format!("{}_{cell}", self.exp.name)
            .chars()
            .map(|c| if keep(c) { c.to_ascii_lowercase() } else { '_' })
            .collect();
        let path = self.results.join("telemetry").join(file + ".jsonl");
        let dump = export::write_jsonl(&path).and_then(export::read_jsonl);
        paraleon_telemetry::set_enabled(false);
        paraleon_telemetry::reset();
        println!("[telemetry -> {}]", path.display());
        dump.unwrap_or_else(|e| {
            self.gate(false, format!("telemetry export failed: {e}"));
            TelemetryDump::default()
        })
    }

    /// The one exit path: fold the audit registry into the gates (an
    /// audited release build does not panic at the violation, so it must
    /// fail here), report, and say whether the experiment passed.
    fn finish(self) -> bool {
        if !self.timed.load(Ordering::Relaxed) {
            self.timing(&Value::Null);
        }
        if paraleon_audit::compiled_in() {
            let (n, reports) = paraleon_audit::drain();
            for rep in reports.iter().take(5) {
                eprintln!("audit violation: {}", rep.violation);
            }
            self.gate(n == 0, format!("{n} invariant violations recorded"));
        }
        let failures = self.failures.into_inner().expect("a gate panicked");
        for f in &failures {
            eprintln!("GATE FAILED [{}]: {f}", self.exp.name);
        }
        if failures.is_empty() {
            println!("[{}: all gates passed]", self.exp.name);
        }
        failures.is_empty()
    }
}

/// `--check`: the regenerated rows must serialise to exactly the
/// committed bytes of `path`.
fn reproduces<T: Serialize>(path: &Path, rows: &T) -> Result<(), String> {
    let fail = |msg: String| format!("{}: {msg}", path.display());
    let new = serde_json::to_string_pretty(rows).map_err(|e| fail(e.to_string()))?;
    let old = std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read: {e}")))?;
    if old == new {
        println!("[check: {} reproduced byte-identically]", path.display());
        return Ok(());
    }
    let same = old.lines().zip(new.lines()).take_while(|(a, b)| a == b);
    Err(fail(format!(
        "regenerated rows differ from the committed file at line {}",
        same.count() + 1
    )))
}

/// Closes every `<!-- exp:<results file> -->` section of `EXPERIMENTS.md`.
const SECTION_END: &str = "<!-- /exp -->";

/// Keep the `<!-- exp:<file> -->` section of the Markdown file `doc` equal
/// to `table`: rewrite it, or under `check` fail naming the doc and the
/// first line that differs. No doc, or no section for `file`: nothing.
fn sync_section(doc: &Path, file: &str, table: &str, check: bool) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string(doc) else {
        return Ok(());
    };
    let start = format!("<!-- exp:{file} -->\n");
    let Some(from) = text.find(&start).map(|i| i + start.len()) else {
        return Ok(());
    };
    let unclosed = || format!("{}: `exp:{file}` is never closed", doc.display());
    let to = from + text[from..].find(SECTION_END).ok_or_else(unclosed)?;
    let body = format!("\n{table}\n");
    if text[from..to] == body {
        if check {
            println!("[check: {} `exp:{file}` reproduced]", doc.display());
        }
        return Ok(());
    }
    if check {
        let same = text[from..to].lines().zip(body.lines());
        let line = text[..from].lines().count() + same.take_while(|(a, b)| a == b).count() + 1;
        return Err(format!(
            "{}:{line}: `exp:{file}` differs from the regenerated table",
            doc.display()
        ));
    }
    let spliced = format!("{}{body}{}", &text[..from], &text[to..]);
    std::fs::write(doc, spliced).map_err(|e| format!("{}: cannot write: {e}", doc.display()))?;
    println!("[table -> {}]", doc.display());
    Ok(())
}

/// Significant digits of every float in a rendered table.
const SIG_DIGITS: i32 = 4;

/// The one rendering of a serialised results document as Markdown. An
/// array of objects is one table whose columns are the scalar leaves, in
/// field order, with nested objects as `a.b` and array fields skipped. A
/// top-level object is a `field | value` table of its leaves plus one
/// table per array-of-objects field.
fn render(doc: &Value) -> String {
    let Value::Object(fields) = doc else {
        return rows_table(doc.as_array().unwrap_or_default());
    };
    let pairs = cells(doc).into_iter().map(|(k, v)| vec![k, v]).collect();
    let mut out = markdown(&["field".into(), "value".into()], pairs);
    for (name, field) in fields {
        let rows = field.as_array().unwrap_or_default();
        if rows.iter().any(|r| matches!(r, Value::Object(_))) {
            out += &format!("\n`{name}`:\n\n{}", rows_table(rows));
        }
    }
    out
}

/// One table, one line per row; a row without some column leaves it blank.
fn rows_table(rows: &[Value]) -> String {
    let rows: Vec<_> = rows.iter().map(cells).collect();
    let mut header: Vec<String> = Vec::new();
    for (key, _) in rows.iter().flatten() {
        if !header.contains(key) {
            header.push(key.clone());
        }
    }
    let lookup = |row: &[(String, String)], key: &str| {
        let cell = row.iter().find(|(k, _)| k == key);
        cell.map_or(String::new(), |(_, v)| v.clone())
    };
    let body = rows
        .iter()
        .map(|row| header.iter().map(|key| lookup(row, key)).collect())
        .collect();
    markdown(&header, body)
}

/// The scalar leaves of `v` as `(column, cell)`, in order.
fn cells(v: &Value) -> Vec<(String, String)> {
    let mut out = Vec::new();
    leaves("", v, &mut out);
    out
}

/// The scalar leaves of `v` under `prefix` as `(column, cell)`, in order.
fn leaves(prefix: &str, v: &Value, out: &mut Vec<(String, String)>) {
    let cell = match v {
        Value::Object(fields) => {
            for (key, field) in fields {
                let path = match prefix {
                    "" => key.clone(),
                    _ => format!("{prefix}.{key}"),
                };
                leaves(&path, field, out);
            }
            return;
        }
        Value::Array(_) => return,
        Value::Null => "-".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) if *f == 0.0 || !f.is_finite() => f.to_string(),
        Value::Float(f) => {
            let decimals = SIG_DIGITS - 1 - f.abs().log10().floor() as i32;
            format!("{f:.*}", decimals.max(0) as usize)
        }
        Value::String(s) => s.replace('|', "\\|"),
    };
    let column = if prefix.is_empty() { "value" } else { prefix };
    out.push((column.to_string(), cell));
}

/// A Markdown table: `header`, its `---` rule, then `rows`.
fn markdown(header: &[String], rows: Vec<Vec<String>>) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let mut out = line(header) + &line(&vec!["---".to_string(); header.len()]);
    for row in &rows {
        out += &line(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(ctx: &Ctx) {
        ctx.write(&vec![1u32, 2, 3]);
    }

    fn boom(ctx: &Ctx) {
        ctx.gate(true, "fine");
        ctx.gate(false, "boom");
    }

    /// The same rows plus a timing column that differs on every run.
    fn wall(ctx: &Ctx) {
        static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        rows(ctx);
        ctx.timing(&RUNS.fetch_add(1, Ordering::Relaxed));
    }

    static TABLE: [Experiment; 3] = [
        Experiment {
            name: "rows",
            about: "writes three rows",
            scales: &[Scale::Reduced, Scale::Smoke],
            run: rows,
        },
        Experiment {
            name: "boom",
            about: "fails a gate",
            scales: &[Scale::Reduced],
            run: boom,
        },
        Experiment {
            name: "wall",
            about: "rows plus wall-clock columns",
            scales: &[Scale::Reduced],
            run: wall,
        },
    ];

    fn ctx(threads: usize, results: &Path) -> Ctx {
        Ctx {
            scale: Scale::Reduced,
            check: false,
            threads,
            exp: &TABLE[0],
            results: results.to_path_buf(),
            failures: Mutex::new(Vec::new()),
            started: Instant::now(),
            timed: AtomicBool::new(false),
        }
    }

    /// The file names directly under `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let entries = std::fs::read_dir(dir).expect("dir");
        let mut names: Vec<String> = entries
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
            .collect();
        names.sort_unstable();
        names
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// A fresh per-test results directory under the workspace `target/`.
    fn scratch(test: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/exp-tests")
            .join(test);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn parser_rejects_what_it_does_not_know() {
        let dir = scratch("parser");
        for bad in [
            "",
            "nope",
            "rows --smok",
            "rows --paper --smoke",
            "rows --threads",
            "rows --threads 0",
            "rows --threads two",
            "all rows",
            "list rows",
            "boom --smoke",
            "rows --paper",
        ] {
            assert!(parse(&TABLE, &args(bad)).is_err(), "accepted `{bad}`");
            assert_eq!(run(&TABLE, &args(bad), &dir), 2, "`{bad}` did not exit 2");
        }
        assert!(std::fs::read_dir(&dir).expect("dir").next().is_none());
        assert!(usage(&TABLE).contains("names: rows boom wall"));
    }

    #[test]
    fn parser_accepts_the_documented_forms() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let inv = parse(&TABLE, &args("boom rows boom --check --threads 1")).expect("valid");
        assert_eq!(inv.selected, [0, 1], "table order, no duplicates");
        assert!(inv.check && inv.threads == 1 && inv.scale.is_none());
        // More threads than the machine has are stored as what will run.
        let line = format!("rows --threads {}", usize::MAX);
        assert_eq!(parse(&TABLE, &args(&line)).expect("valid").threads, cores);
        let inv = parse(&TABLE, &args("all --smoke")).expect("valid");
        assert_eq!(inv.selected, [0], "`all` is what defines the scale");
        assert_eq!(inv.scale, Some(Scale::Smoke));
        assert_eq!(
            parse(&TABLE, &args("all")).expect("valid").selected,
            [0, 1, 2]
        );
        assert!(parse(&TABLE, &args("list")).expect("valid").list);
        assert_eq!(run(&TABLE, &args("list"), Path::new("/nonexistent")), 0);
    }

    #[test]
    fn a_failed_gate_fails_the_run() {
        let dir = scratch("gate");
        assert_eq!(run(&TABLE, &args("rows"), &dir), 0);
        assert_eq!(run(&TABLE, &args("boom"), &dir), 1);
        assert_eq!(run(&TABLE, &args("rows boom wall"), &dir), 1);
    }

    #[test]
    fn only_the_default_scale_writes_the_bare_name() {
        let dir = scratch("scales");
        assert_eq!(run(&TABLE, &args("rows"), &dir), 0);
        let default = std::fs::read(dir.join("rows.json")).expect("rows.json");
        std::fs::write(dir.join("rows.json"), b"the committed run").expect("write");
        assert_eq!(run(&TABLE, &args("rows --smoke"), &dir), 0);
        assert_eq!(
            std::fs::read(dir.join("rows_smoke.json")).expect("rows_smoke.json"),
            default
        );
        assert_eq!(
            std::fs::read(dir.join("rows.json")).expect("rows.json"),
            b"the committed run"
        );
    }

    #[test]
    fn check_compares_rows_and_writes_only_timing() {
        // `EXPERIMENTS.md` sits next to `results/`, as in the repository.
        let root = scratch("check");
        let dir = root.join("results");
        std::fs::create_dir_all(&dir).expect("results dir");
        let doc = root.join("EXPERIMENTS.md");
        // Nothing committed yet: every row's check fails, and the only
        // files it leaves are the timing sidecars.
        assert_eq!(run(&TABLE, &args("rows --check"), &dir), 1);
        assert_eq!(run(&TABLE, &args("wall --check"), &dir), 1);
        assert_eq!(listing(&dir), ["timing"]);
        assert_eq!(listing(&dir.join("timing")), ["rows.json", "wall.json"]);
        assert!(!doc.exists());

        // A doc without a section for the row stays byte-identical.
        let unrelated = "# notes\n<!-- exp:other.json -->\nkept\n<!-- /exp -->\n";
        std::fs::write(&doc, unrelated).expect("write");
        assert_eq!(run(&TABLE, &args("rows"), &dir), 0);
        assert_eq!(std::fs::read_to_string(&doc).expect("doc"), unrelated);
        assert_eq!(run(&TABLE, &args("rows --check"), &dir), 0);

        // A write replaces only the text between the row's markers.
        let section = |body: &str| format!("<!-- exp:rows.json -->\n{body}<!-- /exp -->\n");
        std::fs::write(&doc, format!("intro\n{}{unrelated}", section("stale\n"))).expect("write");
        assert_eq!(run(&TABLE, &args("rows"), &dir), 0);
        let table = "\n| value |\n| --- |\n| 1 |\n| 2 |\n| 3 |\n\n";
        let rendered = format!("intro\n{}{unrelated}", section(table));
        assert_eq!(std::fs::read_to_string(&doc).expect("doc"), rendered);
        assert_eq!(run(&TABLE, &args("rows --check"), &dir), 0);

        // A hand-edited pinned section fails the check, naming the doc
        // and the line, and is not rewritten.
        let edited = rendered.replace("| 2 |", "| 7 |");
        std::fs::write(&doc, &edited).expect("write");
        assert_eq!(run(&TABLE, &args("rows --check"), &dir), 1);
        let checked = Ctx {
            check: true,
            ..ctx(1, &dir)
        };
        checked.write(&vec![1u32, 2, 3]);
        let failures = checked.failures.into_inner().expect("gates");
        assert_eq!(failures.len(), 1, "{failures:?}");
        let at = "/../EXPERIMENTS.md:7: `exp:rows.json` differs";
        assert!(failures[0].contains(at), "{failures:?}");
        assert_eq!(std::fs::read_to_string(&doc).expect("doc"), edited);

        std::fs::write(&doc, "").expect("write");
        let path = dir.join("rows.json");
        let edited = std::fs::read_to_string(&path)
            .expect("rows.json")
            .replace('2', "7");
        std::fs::write(&path, &edited).expect("write");
        assert_eq!(run(&TABLE, &args("rows --check"), &dir), 1);
        assert_eq!(std::fs::read_to_string(&path).expect("rows.json"), edited);
    }

    #[test]
    fn timing_goes_to_its_sidecar_and_is_never_compared() {
        let root = scratch("timing");
        let dir = root.join("results");
        let doc = root.join("EXPERIMENTS.md");
        let section = |body: &str| format!("<!-- exp:wall.json -->\n{body}<!-- /exp -->\n");
        std::fs::write(&doc, section("")).expect("write");
        assert_eq!(run(&TABLE, &args("wall"), &dir), 0);
        let read = |path: &Path| std::fs::read_to_string(path).expect("read");
        let sidecar = dir.join("timing/wall.json");
        let first = read(&sidecar);
        for key in [r#""wall_s""#, r#""threads""#, r#""columns""#] {
            assert!(first.contains(key), "{key} missing from {first}");
        }
        // The results file and the section hold the rows, nothing timed.
        assert_eq!(
            read(&dir.join("wall.json")),
            serde_json::to_string_pretty(&vec![1u32, 2, 3]).expect("json")
        );
        let table = "\n| value |\n| --- |\n| 1 |\n| 2 |\n| 3 |\n\n";
        assert_eq!(read(&doc), section(table));

        // Only the timing differs: the check passes and rewrites the
        // sidecar, and nothing else.
        std::fs::remove_file(&sidecar).expect("remove");
        assert_eq!(run(&TABLE, &args("wall --check"), &dir), 0);
        assert_ne!(read(&sidecar), first);
        assert_eq!(read(&doc), section(table));
        assert_eq!(listing(&dir), ["timing", "wall.json"]);

        // A row that times nothing still gets its wall.
        assert_eq!(run(&TABLE, &args("rows"), &dir), 0);
        assert!(read(&dir.join("timing/rows.json")).contains(r#""columns": null"#));

        // A hand-edited deterministic cell fails the check.
        let edited = read(&dir.join("wall.json")).replace('2', "7");
        std::fs::write(dir.join("wall.json"), edited).expect("write");
        assert_eq!(run(&TABLE, &args("wall --check"), &dir), 1);
    }

    #[derive(Serialize)]
    struct Link {
        gbps: f64,
        up: bool,
    }

    #[derive(Serialize)]
    struct Port {
        name: String,
        link: Link,
        samples: Vec<f64>,
        peer: Option<u32>,
    }

    #[test]
    fn render_flattens_nested_objects_and_skips_arrays() {
        let port = |name: &str, gbps, peer| Port {
            name: name.into(),
            link: Link { gbps, up: true },
            samples: vec![1.0, 2.0],
            peer,
        };
        let rows = vec![
            port("a|b", 0.0123456, Some(3)),
            port("c", 98_765.4, None),
            port("d", 1.5, Some(0)),
        ];
        assert_eq!(
            render(&rows.serialize_value()),
            "| name | link.gbps | link.up | peer |\n\
             | --- | --- | --- | --- |\n\
             | a\\|b | 0.01235 | true | 3 |\n\
             | c | 98765 | true | - |\n\
             | d | 1.500 | true | 0 |\n"
        );
    }

    #[test]
    fn render_gives_an_object_a_field_table_and_one_table_per_row_list() {
        #[derive(Serialize)]
        struct Report {
            smoke: bool,
            ratio: f64,
            ports: Vec<Port>,
            sizes: Vec<u32>,
        }
        let report = Report {
            smoke: false,
            ratio: 0.0,
            ports: vec![Port {
                name: "p0".into(),
                link: Link {
                    gbps: 100.0,
                    up: false,
                },
                samples: Vec::new(),
                peer: Some(1),
            }],
            sizes: vec![2, 4],
        };
        assert_eq!(
            render(&report.serialize_value()),
            "| field | value |\n| --- | --- |\n| smoke | false |\n| ratio | 0 |\n\
             \n`ports`:\n\n\
             | name | link.gbps | link.up | peer |\n\
             | --- | --- | --- | --- |\n\
             | p0 | 100.0 | false | 1 |\n"
        );
    }

    #[test]
    fn a_failed_write_fails_the_run() {
        let dir = scratch("unwritable");
        let not_a_dir = dir.join("results");
        std::fs::write(&not_a_dir, b"a file where the directory should be").expect("write");
        assert_eq!(run(&TABLE, &args("rows"), &not_a_dir), 1);
    }

    #[test]
    fn sweep_returns_rows_in_cell_order() {
        let want: Vec<u64> = (0..48).map(|i| i * i).collect();
        for threads in [1, 2] {
            let ctx = ctx(threads, Path::new("unused"));
            let got = ctx.sweep((0..48u64).collect(), |i| {
                // Stagger completion so later cells often finish first.
                std::thread::sleep(std::time::Duration::from_micros(48 - i));
                i * i
            });
            assert_eq!(got, want, "{threads} thread(s)");
        }
    }

    #[test]
    fn each_experiment_starts_with_fresh_thread_local_registries() {
        fn leaks(_: &Ctx) {
            paraleon_telemetry::set_enabled(true);
            paraleon_telemetry::series("utility", 0, 0.5);
        }
        fn clean(ctx: &Ctx) {
            let fresh =
                !paraleon_telemetry::enabled() && paraleon_telemetry::series_points().is_empty();
            ctx.gate(fresh, "an earlier experiment's telemetry leaked in");
        }
        static PAIR: [Experiment; 2] = [
            Experiment::figure("leaks", "", leaks),
            Experiment::figure("clean", "", clean),
        ];
        assert_eq!(run(&PAIR, &args("all"), &scratch("fresh")), 0);
    }

    #[test]
    fn telemetry_dump_turns_the_registry_off_again() {
        let dir = scratch("telemetry");
        let ctx = ctx(1, &dir);
        ctx.telemetry_begin();
        assert!(paraleon_telemetry::enabled());
        paraleon_telemetry::series("utility", 0, 0.5);
        let dump = ctx.telemetry_dump("Some Cell");
        assert_eq!(dump.series_get("utility", 0).len(), 1);
        assert!(dir.join("telemetry/rows_some_cell.jsonl").exists());
        assert!(!paraleon_telemetry::enabled());
        assert!(paraleon_telemetry::series_points().is_empty());
        assert!(ctx.finish());
    }

    // --- the real table (`exp::ALL`); here, not in `exp/`, because the
    // ownership check reads `results/`.

    #[test]
    fn names_are_unique_and_list_order_is_stable() {
        let names: Vec<&str> = crate::exp::ALL.iter().map(|e| e.name).collect();
        assert_eq!(
            names.join(" "),
            "table2 fig5 fig6 fig7_fb fig7_llm fig8 fig9 fig10 fig11 fig12 fig13 fig14 \
             table4 collectives faults ctrl_faults fleet probe hunt corpus"
        );
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(crate::exp::ALL.iter().all(|e| !e.scales.is_empty()));
    }

    /// A results directory with a sibling `corpus/` holding a copy of the
    /// committed case `file`: (results directory, the copy).
    fn corpus_scratch(test: &str, file: &str) -> (PathBuf, PathBuf) {
        let root = scratch(test);
        let corpus = root.join("corpus");
        std::fs::create_dir_all(&corpus).expect("corpus dir");
        let case = corpus.join(file);
        let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../corpus")
            .join(file);
        std::fs::copy(committed, &case).expect("committed case");
        (root.join("results"), case)
    }

    /// Run the `corpus` row on `results`; its failed gates.
    fn corpus_failures(results: &Path, check: bool) -> Vec<String> {
        let ctx = Ctx {
            check,
            exp: crate::exp::ALL
                .iter()
                .find(|e| e.name == "corpus")
                .expect("row"),
            ..ctx(1, results)
        };
        (ctx.exp.run)(&ctx);
        ctx.failures.into_inner().expect("gates")
    }

    #[test]
    fn corpus_does_not_repin_a_case_that_does_not_fire() {
        let (results, case) = corpus_scratch("corpus-repin", "unfairness_seed42.json");
        let committed = std::fs::read_to_string(&case).expect("case");
        // The trailing newline is one more byte a repin would rewrite.
        let relabelled = committed.replacen(r#""kind": "Unfairness""#, r#""kind": "PfcStorm""#, 1);
        let relabelled = relabelled + "\n";
        assert!(!relabelled.starts_with(&committed));
        std::fs::write(&case, &relabelled).expect("write");
        let failures = corpus_failures(&results, false);
        assert_eq!(failures.len(), 1, "{failures:?}");
        let why = "unfairness_seed42: the pfc_storm oracle does not fire";
        assert!(failures[0].contains(why), "{failures:?}");
        assert_eq!(std::fs::read_to_string(&case).expect("case"), relabelled);
        assert_eq!(run(&crate::exp::ALL, &args("corpus"), &results), 1);
    }

    #[test]
    fn corpus_check_names_a_case_file_whose_report_drifted() {
        let (results, case) = corpus_scratch("corpus-drift", "pfc_storm_seed42.json");
        assert_eq!(corpus_failures(&results, false), Vec::<String>::new());
        assert_eq!(corpus_failures(&results, true), Vec::<String>::new());

        // One digit of the committed report.
        let text = std::fs::read_to_string(&case).expect("case");
        let report = text.find(r#""report""#).expect("a report");
        let at = report
            + text[report..]
                .find(|c: char| c.is_ascii_digit())
                .expect("a digit");
        let digit = (text.as_bytes()[at] - b'0' + 1) % 10;
        let edited = format!("{}{digit}{}", &text[..at], &text[at + 1..]);
        std::fs::write(&case, &edited).expect("write");
        let failures = corpus_failures(&results, true);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("corpus/pfc_storm_seed42.json"),
            "{failures:?}"
        );
        assert_eq!(std::fs::read_to_string(&case).expect("case"), edited);
        assert_eq!(run(&crate::exp::ALL, &args("corpus --check"), &results), 1);
    }

    /// The result files an experiment may write, default scale first.
    fn owned(e: &Experiment) -> Vec<String> {
        e.scales.iter().map(|&s| e.results_file(s)).collect()
    }

    #[test]
    fn every_committed_result_has_exactly_one_owner() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for entry in std::fs::read_dir(&results).expect("results/") {
            let file = entry.expect("entry").file_name();
            let file = file.to_str().expect("utf-8");
            if !file.ends_with(".json") {
                continue;
            }
            let owners = crate::exp::ALL
                .iter()
                .filter(|e| owned(e).iter().any(|f| f == file));
            assert_eq!(owners.count(), 1, "owners of results/{file}");
        }
        for e in &crate::exp::ALL {
            let file = &owned(e)[0];
            assert!(
                results.join(file).exists(),
                "`{}` has no committed results/{file}",
                e.name
            );
        }
    }

    #[test]
    fn every_experiments_md_section_names_an_owned_result() {
        let doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(doc).expect("EXPERIMENTS.md");
        let mut seen = Vec::new();
        for section in doc.split("<!-- exp:").skip(1) {
            let file = section.split(" -->").next().expect("marker");
            let owner = crate::exp::ALL
                .iter()
                .find(|e| owned(e).iter().any(|f| f == file));
            assert!(owner.is_some(), "`exp:{file}` names no experiment's result");
            assert!(
                section.contains(SECTION_END),
                "`exp:{file}` is never closed"
            );
            assert!(!seen.contains(&file), "two `exp:{file}` sections");
            seen.push(file);
        }
        assert!(!seen.is_empty(), "EXPERIMENTS.md has no `exp:` sections");
    }
}
