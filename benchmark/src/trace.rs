//! Spans around every call into the transaction API, recorded from outside
//! the kernel. A transaction is a span; each API call it makes is a child
//! span sharing the transaction's id. Aggregates cover every traced
//! transaction; raw spans are kept for a bounded sample and written as
//! Chrome/Perfetto JSON when the run ends.

use phoebe_common::error::Result;
use phoebe_common::ids::RowId;
use phoebe_common::HistogramSnapshot;
use phoebe_storage::schema::Value;
use phoebe_tpcc::{Idx, Tbl, TpccConn};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The transaction API's entry points, as the spans name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    Begin = 0,
    Read = 1,
    Lookup = 2,
    MultiLookup = 3,
    Scan = 4,
    Insert = 5,
    Update = 6,
    Delete = 7,
    Commit = 8,
    Abort = 9,
}

pub const OP_NAMES: [&str; 10] = [
    "begin",
    "read",
    "lookup",
    "multi_lookup",
    "scan",
    "insert",
    "update",
    "delete",
    "commit",
    "abort",
];

/// Raw transactions kept per client for the trace file: 16 clients × 256
/// transactions × ~35 calls stays around 20 MB of JSON.
pub const RAW_TXNS_PER_CLIENT: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSpan {
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Debug)]
pub struct TxnSpan {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: Vec<OpSpan>,
}

#[derive(Clone, Default)]
pub struct OpAgg {
    pub calls: u64,
    pub ns: u64,
    pub hist: HistogramSnapshot,
}

/// Totals over every traced transaction. `txn_ns = self_ns + Σ ops.ns` by
/// construction, so the shares sum to one.
#[derive(Clone, Default)]
pub struct SpanAgg {
    pub txns: u64,
    pub txn_ns: u64,
    pub self_ns: u64,
    pub txn_hist: HistogramSnapshot,
    pub ops: [OpAgg; 10],
}

impl SpanAgg {
    /// Book one transaction span and its children. A child is credited
    /// with the part of the parent it covers: children arrive in start
    /// order (a transaction issues its calls one after another), overlap is
    /// counted once and overhang beyond the parent is clipped. What no
    /// child covers is the transaction's self time.
    pub fn add(&mut self, start_ns: u64, end_ns: u64, ops: &[OpSpan]) {
        let mut covered = 0;
        let mut cursor = start_ns;
        for c in ops {
            let (s, e) = (c.start_ns.max(cursor), c.end_ns.min(end_ns));
            let d = e.saturating_sub(s);
            cursor = cursor.max(e);
            covered += d;
            let a = &mut self.ops[c.op as usize];
            a.calls += 1;
            a.ns += d;
            a.hist.record(c.end_ns.saturating_sub(c.start_ns));
        }
        self.txns += 1;
        self.txn_ns += end_ns - start_ns;
        self.self_ns += (end_ns - start_ns) - covered;
        self.txn_hist.record(end_ns - start_ns);
    }

    pub fn merge(&mut self, other: &SpanAgg) {
        self.txns += other.txns;
        self.txn_ns += other.txn_ns;
        self.self_ns += other.self_ns;
        self.txn_hist.merge(&other.txn_hist);
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            a.calls += b.calls;
            a.ns += b.ns;
            a.hist.merge(&b.hist);
        }
    }

    /// `(name, value, unit)` for every span metric.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let per = |x: u64, y: u64| if y == 0 { 0.0 } else { x as f64 / y as f64 };
        let mut out = Vec::new();
        for (name, a) in OP_NAMES.iter().zip(&self.ops) {
            out.push((format!("span.{name}.calls_per_txn"), per(a.calls, self.txns), "count"));
            out.push((format!("span.{name}.p50_us"), a.hist.p50() as f64 / 1e3, "us"));
            out.push((format!("span.{name}.share"), per(a.ns, self.txn_ns), "share"));
        }
        out.push(("span.client.share".into(), per(self.self_ns, self.txn_ns), "share"));
        out.push(("span.txn.p50_us".into(), self.txn_hist.p50() as f64 / 1e3, "us"));
        out
    }
}

/// One client's span recorder. `on` is decided per transaction by the
/// client loop; while it is off every hook is a branch and nothing else, so
/// the untraced run and the traced run execute the same client code.
pub struct Recorder {
    epoch: Instant,
    client: u64,
    next_txn: u64,
    on: bool,
    ops: Vec<OpSpan>,
    pub agg: SpanAgg,
    pub raw: Vec<TxnSpan>,
}

impl Recorder {
    pub fn new(epoch: Instant, client: usize) -> Self {
        Recorder {
            epoch,
            client: client as u64,
            next_txn: 0,
            on: false,
            ops: Vec::with_capacity(64),
            agg: SpanAgg::default(),
            raw: Vec::new(),
        }
    }

    pub fn begin_txn(&mut self, on: bool) {
        self.on = on;
        self.ops.clear();
    }

    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    #[inline]
    pub fn end(&mut self, op: Op, started: Option<Instant>) {
        if let Some(t) = started {
            let end = Instant::now();
            self.ops.push(OpSpan { op, start_ns: self.ns(t), end_ns: self.ns(end) });
        }
    }

    pub fn end_txn(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.agg.add(start_ns, end_ns, &self.ops);
        if self.raw.len() < RAW_TXNS_PER_CLIENT {
            self.raw.push(TxnSpan {
                id: self.client << 40 | self.next_txn,
                name,
                start_ns,
                end_ns,
                ops: self.ops.clone(),
            });
        }
        self.next_txn += 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// A [`TpccConn`] whose every call is timed as a child span.
pub struct Traced<'a, C> {
    pub conn: C,
    pub rec: &'a mut Recorder,
}

macro_rules! timed {
    ($self:ident, $op:expr, $call:expr) => {{
        let t = $self.rec.start();
        let out = $call;
        $self.rec.end($op, t);
        out
    }};
}

impl<C: TpccConn> TpccConn for Traced<'_, C> {
    async fn read(&mut self, t: Tbl, row: RowId) -> Result<Option<Vec<Value>>> {
        timed!(self, Op::Read, self.conn.read(t, row).await)
    }

    async fn insert(&mut self, t: Tbl, tuple: Vec<Value>) -> Result<RowId> {
        timed!(self, Op::Insert, self.conn.insert(t, tuple).await)
    }

    async fn update(&mut self, t: Tbl, row: RowId, delta: Vec<(usize, Value)>) -> Result<RowId> {
        timed!(self, Op::Update, self.conn.update(t, row, delta).await)
    }

    async fn update_rmw<F>(&mut self, t: Tbl, row: RowId, f: F) -> Result<(RowId, Vec<Value>)>
    where
        F: Fn(&[Value]) -> Vec<(usize, Value)> + Send + Sync,
    {
        timed!(self, Op::Update, self.conn.update_rmw(t, row, f).await)
    }

    async fn delete(&mut self, t: Tbl, row: RowId) -> Result<()> {
        timed!(self, Op::Delete, self.conn.delete(t, row).await)
    }

    async fn lookup(&mut self, idx: Idx, key: Vec<Value>) -> Result<Option<(RowId, Vec<Value>)>> {
        timed!(self, Op::Lookup, self.conn.lookup(idx, key).await)
    }

    async fn multi_lookup(
        &mut self,
        idx: Idx,
        keys: Vec<Vec<Value>>,
    ) -> Result<Vec<Option<(RowId, Vec<Value>)>>> {
        timed!(self, Op::MultiLookup, self.conn.multi_lookup(idx, keys).await)
    }

    async fn scan(
        &mut self,
        idx: Idx,
        prefix: Vec<Value>,
        limit: usize,
    ) -> Result<Vec<(RowId, Vec<Value>)>> {
        timed!(self, Op::Scan, self.conn.scan(idx, prefix, limit).await)
    }

    async fn commit(self) -> Result<()> {
        timed!(self, Op::Commit, self.conn.commit().await)
    }

    fn abort(self) {
        timed!(self, Op::Abort, self.conn.abort())
    }
}

/// Write spans as Chrome trace-event JSON (`ph:"X"` complete events, µs).
/// One Perfetto track per client; a call's `args.parent` is its
/// transaction's `args.txn`.
pub fn write_chrome_json(path: &Path, clients: &[Vec<TxnSpan>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    let us = |ns: u64| ns as f64 / 1e3;
    for (tid, txns) in clients.iter().enumerate() {
        for t in txns {
            let sep = if std::mem::take(&mut first) { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"name\":\"{}\",\"cat\":\"txn\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"txn\":{}}}}}",
                t.name,
                us(t.start_ns),
                us(t.end_ns - t.start_ns),
                t.id
            )?;
            for c in &t.ops {
                write!(
                    w,
                    ",\n{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":{}}}}}",
                    OP_NAMES[c.op as usize],
                    us(c.start_ns),
                    us(c.end_ns.saturating_sub(c.start_ns)),
                    t.id
                )?;
            }
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(op: Op, start_ns: u64, end_ns: u64) -> OpSpan {
        OpSpan { op, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_parent_minus_covered() {
        let self_ns = |start, end, kids: &[OpSpan]| {
            let mut agg = SpanAgg::default();
            agg.add(start, end, kids);
            agg.self_ns
        };
        let kids = [op(Op::Begin, 10, 20), op(Op::Lookup, 30, 50), op(Op::Commit, 60, 100)];
        assert_eq!(self_ns(0, 100, &kids), 100 - (10 + 20 + 40));
        assert_eq!(self_ns(0, 100, &[]), 100);
        // Overlap is counted once; overhang past the parent is clipped.
        let odd = [op(Op::Scan, 0, 60), op(Op::Read, 40, 80), op(Op::Commit, 90, 130)];
        assert_eq!(self_ns(0, 100, &odd), 100 - (60 + 20 + 10));
    }

    #[test]
    fn shares_sum_to_one_on_a_synthetic_tree() {
        let mut agg = SpanAgg::default();
        agg.add(
            0,
            1000,
            &[op(Op::Begin, 0, 50), op(Op::Lookup, 100, 400), op(Op::Commit, 500, 900)],
        );
        agg.add(2000, 2600, &[op(Op::Update, 2100, 2300), op(Op::Abort, 2300, 2350)]);
        // A degenerate transaction whose children overlap and overhang.
        agg.add(3000, 3100, &[op(Op::Scan, 2990, 3080), op(Op::Read, 3050, 3200)]);
        let m = agg.metrics();
        let total: f64 = m.iter().filter(|(n, _, _)| n.ends_with(".share")).map(|x| x.1).sum();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to {total}");
        let get = |name: &str| m.iter().find(|(n, _, _)| n == name).unwrap().1;
        assert_eq!(get("span.lookup.calls_per_txn"), 1.0 / 3.0);
        assert_eq!(get("span.commit.share"), 400.0 / 1700.0);
        assert_eq!(agg.txns, 3);

        let mut merged = SpanAgg::default();
        merged.merge(&agg);
        merged.merge(&agg);
        assert_eq!(merged.txn_ns, 2 * agg.txn_ns);
        assert_eq!(merged.metrics()[2].1, m[2].1);
    }

    #[test]
    fn recorder_is_inert_while_off() {
        let mut r = Recorder::new(Instant::now(), 2);
        r.begin_txn(false);
        assert!(r.start().is_none());
        r.end(Op::Lookup, None);
        r.end_txn("kv_read", Instant::now(), Instant::now());
        assert_eq!(r.agg.txns, 0);
        r.begin_txn(true);
        let t0 = Instant::now();
        let t = r.start();
        r.end(Op::Lookup, t);
        r.end_txn("kv_read", t0, Instant::now());
        assert_eq!(r.agg.txns, 1);
        assert_eq!(r.agg.ops[Op::Lookup as usize].calls, 1);
        assert_eq!(r.raw[0].id, 2 << 40);
    }
}
