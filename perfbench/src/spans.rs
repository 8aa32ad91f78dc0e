//! Outside spans: host-time intervals the benchmark records around its
//! own calls into each library layer.
//!
//! A span has a name, a start, an end, its parent span and the iteration
//! it belongs to. Spans stay in memory while the run measures and are
//! written out once it ends. A layer's *self time* is a span's duration
//! minus the part of it that its child spans cover.

use std::time::Instant;

/// Iteration id of spans recorded outside any iteration (setup, probes).
pub const NO_ITER: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub iter: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-rank span recorder. A disabled recorder records nothing, so the
/// untraced run pays no more than a branch per span.
pub struct Spans {
    on: bool,
    rank: usize,
    epoch: Instant,
    iter: u32,
    stack: Vec<usize>,
    log: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, rank: usize, epoch: Instant) -> Spans {
        Spans {
            on,
            rank,
            epoch,
            iter: NO_ITER,
            stack: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Tag the spans opened from now on with iteration `iter`.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.log.len();
        self.log.push(Span {
            name,
            rank: self.rank,
            iter: self.iter,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let id = self.stack.pop().expect("close without a matching open");
        self.log[id].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    pub fn into_log(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "spans left open");
        self.log
    }
}

/// Self time of every span in `log` (whose `parent` fields index `log`):
/// its duration minus the union of its children's intervals.
pub fn self_times(log: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); log.len()];
    for s in log {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    log.iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Render spans as a JSON array, one object per span.
pub fn to_json(log: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in log.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let iter = if s.iter == NO_ITER {
            "null".to_string()
        } else {
            s.iter.to_string()
        };
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"rank\": {}, \"iter\": {iter}, \
             \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
            s.name,
            s.rank,
            s.start_ns,
            s.end_ns,
            if i + 1 < log.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            rank: 0,
            iter: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let log = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),
            span(Some(0), 90, 120),
        ];
        // Children cover [10, 50) and [90, 100): 50 of the parent's 100.
        assert_eq!(self_times(&log), vec![50, 20, 30, 30]);
    }
}
