//! Spans the traced run records around its own calls into the program.
//!
//! Nothing is recorded inside the program: every span starts and ends in
//! benchmark code, around a call into one module's public functions. The
//! spans of one op share an id (`thread << 32 | index`), and counter
//! snapshots are taken at phase and segment boundaries.

use std::io::{BufWriter, Write};
use std::path::Path;

use obs::Json;

/// Op classes as recorded in a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `find`.
    Find,
    /// `scan_n`.
    Scan,
    /// `upsert`.
    Upsert,
    /// `insert`.
    Insert,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Find => "find",
            Class::Scan => "scan_n",
            Class::Upsert => "upsert",
            Class::Insert => "insert",
        }
    }
}

/// One traced op: its key/op generation span and its index-call span,
/// back to back (generation ends where the call starts).
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    /// Generation start, ns since the run's epoch.
    pub start_ns: u64,
    /// Generation time.
    pub gen_ns: u32,
    /// Index-call time.
    pub call_ns: u32,
    /// The call's class.
    pub class: Class,
}

/// What a probe timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// `RnTree::leaf_of`: the inner-index descent alone.
    Descent,
    /// `find` of a sampled key.
    Find,
    /// `scan_n` from a sampled key.
    Scan,
}

/// One probe call, made before the op it shares an id with.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpan {
    /// Index of the op (in its thread's [`OpSpan`] list) it precedes.
    pub op: u32,
    /// What was called.
    pub probe: Probe,
    /// Pairs returned (scans).
    pub keys: u32,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u32,
}

/// A phase of the run (set-up, preconditioning, a measured segment,
/// recovery) with the counters at its end.
#[derive(Debug, Clone)]
pub struct PhaseSpan {
    /// Phase name.
    pub name: String,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Counter snapshot at `end_ns`.
    pub counters: Json,
}

/// The spans of one thread.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    /// Traced ops, in issue order.
    pub ops: Vec<OpSpan>,
    /// Probes, in issue order.
    pub probes: Vec<ProbeSpan>,
}

fn span(id: u64, name: &str, start: u64, end: u64) -> Json {
    let mut o = Json::obj();
    o.set("id", Json::U64(id));
    o.set("span", Json::Str(name.into()));
    o.set("start_ns", Json::U64(start));
    o.set("end_ns", Json::U64(end));
    o
}

/// Writes every phase span and the spans of every `sample_every`-th
/// traced op (with its probes) to `path` as JSON lines.
pub fn write(
    path: &Path,
    phases: &[PhaseSpan],
    threads: &[ThreadTrace],
    sample_every: usize,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for p in phases {
        let mut o = span(0, &p.name, p.start_ns, p.end_ns);
        o.set("counters", p.counters.clone());
        writeln!(w, "{}", o.render())?;
    }
    for (tid, t) in threads.iter().enumerate() {
        let id = |i: usize| ((tid as u64) << 32) | i as u64;
        for (i, op) in t.ops.iter().enumerate().step_by(sample_every) {
            let call_start = op.start_ns + u64::from(op.gen_ns);
            writeln!(
                w,
                "{}",
                span(id(i), "gen", op.start_ns, call_start).render()
            )?;
            writeln!(
                w,
                "{}",
                span(
                    id(i),
                    op.class.name(),
                    call_start,
                    call_start + u64::from(op.call_ns)
                )
                .render()
            )?;
        }
        for p in t
            .probes
            .iter()
            .filter(|p| (p.op as usize).is_multiple_of(sample_every))
        {
            let name = match p.probe {
                Probe::Descent => "probe.leaf_of",
                Probe::Find => "probe.find",
                Probe::Scan => "probe.scan_n",
            };
            writeln!(
                w,
                "{}",
                span(
                    id(p.op as usize),
                    name,
                    p.start_ns,
                    p.start_ns + u64::from(p.dur_ns)
                )
                .render()
            )?;
        }
    }
    w.flush()
}
