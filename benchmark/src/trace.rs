//! Spans recorded by the benchmark's own code around its calls into the
//! system. They stay in memory during the run and are written as JSON
//! lines when it ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the id of the span that caused it
/// (0 for a root); spans of one request share `query`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log for one thread. Ids are unique per log; files
/// carry the log's `source` beside them.
pub struct SpanLog {
    source: &'static str,
    lane: usize,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// `epoch` is shared by every log of a run so their clocks line up.
    pub fn new(source: &'static str, lane: usize, epoch: Instant, capacity: usize) -> Self {
        Self {
            source,
            lane,
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        query: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Opens a span whose end is not known yet, so that children can
    /// name it as their parent; finish it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32, query: u64, start: Instant) -> u32 {
        self.record(name, parent, query, start, start)
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize - 1].end_ns = (end - self.epoch).as_nanos() as u64;
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"source\":\"{}\",\"lane\":{},\"id\":{},\"parent\":{},\"query\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.source, self.lane, s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Writes every log to `path`, one JSON object per line.
pub fn write_jsonl(path: &Path, logs: &[&SpanLog]) -> io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for log in logs {
        log.write_to(&mut out)?;
    }
    out.flush()?;
    Ok(logs.iter().map(|l| l.spans.len()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_under_an_open_parent_and_serialize_one_per_line() {
        let epoch = Instant::now();
        let mut log = SpanLog::new("client", 1, epoch, 4);
        let t1 = epoch + Duration::from_nanos(100);
        let t2 = epoch + Duration::from_nanos(350);
        let root = log.open("query", 0, 9, epoch);
        let child = log.record("client.encode", root, 9, epoch, t1);
        log.close(root, t2);
        assert_ne!(child, root);
        assert_eq!(log.durations_ns("client.encode"), vec![100.0]);
        assert_eq!(log.durations_ns("query"), vec![350.0]);
        let mut buf = Vec::new();
        log.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"parent\":0,\"query\":9,\"name\":\"query\",\"start_ns\":0,\"end_ns\":350"));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":1,"));
    }
}
