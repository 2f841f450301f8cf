//! In-memory span recording for the traced run.
//!
//! A span is opened around every call the harness makes into a layer
//! (and, through [`crate::app::BenchApp`], around every call the replica
//! makes into the application). Spans nest strictly because everything
//! runs on one thread, so a span's *self time* is its duration minus the
//! durations of its direct children. Every node step is itself a span:
//! its self time is the harness glue inside the timed interval, reported
//! as `unattributed`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// The layer a span belongs to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Layer {
    /// One whole node step (the untraced run times only these).
    Step,
    /// `FrameAccumulator` decode of inbound frames.
    Decode,
    /// `write_frame_into` of outbound frames.
    Encode,
    /// One `EngineReplica::on_event` call (engine, batcher, replica).
    Engine,
    /// `Application::execute`.
    AppExecute,
    /// `Application::snapshot`.
    AppSnapshot,
    /// `DirStorage::persist`.
    Storage,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Decode,
        Layer::Encode,
        Layer::Engine,
        Layer::AppExecute,
        Layer::AppSnapshot,
        Layer::Storage,
        Layer::Step,
    ];

    /// Stable name used in reports and the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "step",
            Layer::Decode => "framing.decode",
            Layer::Encode => "framing.encode",
            Layer::Engine => "engine.step",
            Layer::AppExecute => "app.execute",
            Layer::AppSnapshot => "app.snapshot",
            Layer::Storage => "storage.persist",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed")
    }
}

/// Sentinel for "no parent".
pub const NO_SPAN: u32 = u32::MAX;

/// One recorded span.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    /// Layer.
    pub layer: Layer,
    /// Node index the work is charged to.
    pub node: u16,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
    /// The span that caused this one: the enclosing span, or for a step
    /// span the step that sent the frame, armed the timer or issued the
    /// persist that this step handles.
    pub parent: u32,
}

/// Records spans of one round.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    node: u16,
}

/// The tracer shared between the harness and the application wrappers.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            node: 0,
        }
    }

    /// Opens a node step caused by span `cause` and returns its id.
    pub fn begin_step(&mut self, node: u16, cause: u32) -> u32 {
        self.node = node;
        self.push(Layer::Step, cause)
    }

    /// Opens a span of `layer` inside the innermost open span.
    pub fn begin(&mut self, layer: Layer) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NO_SPAN);
        self.push(layer, parent)
    }

    fn push(&mut self, layer: Layer, parent: u32) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per round");
        let start = self.now();
        self.spans.push(Span {
            layer,
            node: self.node,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: u32) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end = end;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Self time per layer, summed over all nodes, in nanoseconds
    /// (indexed like [`Layer::ALL`]), and per node for the engine layer.
    pub fn self_times(&self, nodes: usize) -> SelfTimes {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.layer != Layer::Step && s.parent != NO_SPAN {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = SelfTimes {
            total: [0; 7],
            engine_by_node: vec![0; nodes],
        };
        for (s, c) in self.spans.iter().zip(child) {
            let own = (s.end - s.start).saturating_sub(c);
            out.total[s.layer.index()] += own;
            if s.layer == Layer::Engine {
                out.engine_by_node[usize::from(s.node)] += own;
            }
        }
        out
    }

    /// The spans as tab-separated lines: id, layer, node, start, end,
    /// parent (empty for none).
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tlayer\tnode\tstart_ns\tend_ns\tparent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.layer.name(),
                s.node,
                s.start,
                s.end
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-layer self times of one round.
#[derive(Clone, Debug)]
pub struct SelfTimes {
    /// Nanoseconds per layer, indexed like [`Layer::ALL`].
    pub total: [u64; 7],
    /// Engine-layer self nanoseconds per node.
    pub engine_by_node: Vec<u64>,
}

impl SelfTimes {
    /// Self nanoseconds of `layer`.
    pub fn of(&self, layer: Layer) -> u64 {
        self.total[layer.index()]
    }
}

/// Runs `f` inside a span of `layer` when tracing, plainly otherwise.
pub fn traced<T>(tracer: Option<&SharedTracer>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let id = t.borrow_mut().begin(layer);
            let out = f();
            t.borrow_mut().end(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let step = t.begin_step(0, NO_SPAN);
        let engine = t.begin(Layer::Engine);
        let app = t.begin(Layer::AppExecute);
        std::hint::black_box((0..10_000u64).sum::<u64>());
        t.end(app);
        t.end(engine);
        t.end(step);
        let st = t.self_times(1);
        let span = |id: u32| t.spans[id as usize].end - t.spans[id as usize].start;
        assert_eq!(
            st.of(Layer::Step) + st.of(Layer::Engine) + st.of(Layer::AppExecute),
            span(step),
            "self times partition the outermost span"
        );
        assert_eq!(st.of(Layer::AppExecute), span(app));
        assert!(t.dump().lines().count() == 4);
    }
}
