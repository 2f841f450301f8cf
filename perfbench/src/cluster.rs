//! The deterministic single-thread cluster.
//!
//! Every replica of a deployment is a real [`EngineReplica`] hosted in
//! this one thread. Messages travel as bytes: each `Action::Send` and
//! `Action::Respond` is framed with `write_frame_into`, and the receiver
//! decodes it through a per-link `FrameAccumulator` — the code the TCP
//! reader and writer threads run, minus the syscalls. Events run in
//! *virtual* time order (a fixed one-way hop, timers at their virtual
//! deadlines, ties broken by creation order), so the schedule and every
//! count repeat exactly for a seed.
//!
//! Each node step is timed with the wall clock and charged to its node.
//! A second, *priced* timeline models each node as a single-server
//! queue: a step starts at `max(node free, priced arrival)`, ends its
//! measured CPU later, and its outputs arrive one hop after it ends.
//! Client latency on that timeline includes hops, timer waits, CPU and
//! queueing, as if every node had a core of its own, without the
//! measurement changing the event order.

use crate::app::{BenchApp, Service};
use crate::trace::{traced, Layer, SelfTimes, SharedTracer, Tracer, NO_SPAN};
use crate::workloads::{self, Op, Scale};
use bytes::{Bytes, BytesMut};
use mrp_amcast::EngineReplica;
use mrp_sim::net::Topology;
use mrp_storage::DirStorage;
use mrp_transport::framing::{write_frame_into, FrameAccumulator};
use multiring_paxos::codec;
use multiring_paxos::event::{
    Action, Event, Message, PersistRecord, PersistToken, StateMachine, TimerKind,
};
use multiring_paxos::replica::CheckpointPolicy;
use multiring_paxos::types::{ClientId, ProcessId, Time};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

/// Serialises building replicas: batching is the `MRP_BATCH` deployment
/// setting, read from the environment when an engine is built.
static BUILD_LOCK: Mutex<()> = Mutex::new(());

/// Virtual time a run may stay without finishing its operations after
/// the last one was issued before it counts them as unanswered.
const STALL_LIMIT_US: u64 = 60_000_000;

/// How one round runs.
#[derive(Clone, Debug)]
pub struct Options {
    /// Record spans around every call into a layer.
    pub trace: bool,
    /// Directory for the replicas' `DirStorage` (created and removed).
    pub tmp: PathBuf,
    /// Flip one byte of the n-th response before the client checks it
    /// (the self-test that proves the checks fire).
    pub corrupt_response: Option<u64>,
}

/// Counts that repeat exactly for a seed.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Counts {
    /// Operations completed.
    pub ops: u64,
    /// Frames on the wire (requests, protocol messages, responses).
    pub frames: u64,
    /// Bytes of those frames, length prefix included.
    pub frame_bytes: u64,
    /// `EngineReplica::on_event` calls.
    pub events: u64,
    /// `Application::execute` calls.
    pub executes: u64,
    /// Persists written through `DirStorage`.
    pub persists: u64,
    /// Encoded bytes of those persists.
    pub persist_bytes: u64,
    /// Checkpoints persisted.
    pub checkpoints: u64,
    /// Bytes of persisted checkpoint blobs.
    pub checkpoint_bytes: u64,
    /// `TrimStorage` actions (the on-disk WAL rewrite is not run: it
    /// calls `fsync`).
    pub storage_trims: u64,
    /// Responses received by clients.
    pub responses: u64,
    /// Responses clients needed to complete their operations.
    pub responses_needed: u64,
    /// Batcher flushes, from the replicas' telemetry.
    pub batch_flushes: u64,
    /// Values submitted through those flushes.
    pub batch_values: u64,
    /// Virtual time at which the round ended, microseconds.
    pub end_us: u64,
    /// Client latency on the virtual timeline, sorted, microseconds.
    pub protocol_latency_us: Vec<u64>,
    /// Final replica digests, by node.
    pub digests: Vec<u64>,
}

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    /// Exact counts.
    pub counts: Counts,
    /// Operations issued.
    pub attempted: u64,
    /// Operations unanswered or answered wrongly.
    pub failed: u64,
    /// Correctness violations (at most a few are kept verbatim).
    pub errors: Vec<String>,
    /// Wall time from round start to the first completed operation.
    pub setup_ns: u64,
    /// Measured CPU per node.
    pub node_cpu_ns: Vec<u64>,
    /// Client latency on the priced timeline, per completed operation.
    pub latency_ns: Vec<u64>,
    /// Priced queue wait of every node step.
    pub queue_wait_ns: Vec<u64>,
    /// The node of every node step, in execution order.
    pub step_node: Vec<u16>,
    /// Measured CPU of every node step, in execution order.
    pub step_cpu_ns: Vec<u64>,
    /// Priced time at which the last node went idle.
    pub priced_end_ns: u64,
    /// Per-layer self times (traced rounds only).
    pub self_times: Option<SelfTimes>,
    /// The round's spans (traced rounds only).
    pub tracer: Option<SharedTracer>,
}

/// Runs one round of `workload`: build, preload, start, run the seeded
/// closed-loop traffic to completion, verify.
///
/// # Errors
///
/// An unknown workload or a failure of the storage directory.
pub fn run_round(workload: &str, seed: u64, scale: Scale, opts: &Options) -> Result<Round, String> {
    // A directory left by an interrupted run would be replayed by
    // `DirStorage::open`: every round starts from an empty one.
    remove_dir(&opts.tmp)?;
    let wall0 = Instant::now();
    let tracer = opts.trace.then(|| Rc::new(RefCell::new(Tracer::new())));
    let setup = workloads::build(workload, seed, scale)?;
    let mut cluster = Cluster::new(setup, tracer.clone(), opts)?;
    cluster.run(wall0);
    let round = cluster.finish(tracer);
    remove_dir(&opts.tmp)?;
    Ok(round)
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    }
    Ok(())
}

#[derive(Debug)]
enum Kind {
    Start,
    Net { from: usize, bytes: Vec<u8> },
    Timer(TimerKind),
    PersistDone(PersistToken),
}

/// A scheduled event, at a node or (index `nodes.len()`) at the clients.
#[derive(Debug)]
struct Ev {
    t_us: u64,
    seq: u64,
    priced_ns: u64,
    cause: u32,
    at: usize,
    kind: Kind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.t_us, self.seq) == (other.t_us, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    // Reversed: `BinaryHeap` pops the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.t_us, other.seq).cmp(&(self.t_us, self.seq))
    }
}

struct Node {
    replica: EngineReplica<BenchApp>,
    /// Inbound link decoders, by sender index (clients last).
    inbound: Vec<FrameAccumulator>,
    storage: Option<DirStorage>,
    group: u16,
    free_ns: u64,
    cpu_ns: u64,
}

/// Everything a node step writes besides the node itself.
struct Wire {
    tracer: Option<SharedTracer>,
    scratch: BytesMut,
    counts: Counts,
    errors: Vec<String>,
    nodes: usize,
}

#[derive(Default)]
struct StepOut {
    chunks: Vec<(usize, Vec<u8>)>,
    timers: Vec<(u64, TimerKind)>,
    persisted: Vec<PersistToken>,
}

struct InFlight {
    session: u32,
    op: Op,
    issued_us: u64,
    issued_ns: u64,
    parts: BTreeMap<u16, Bytes>,
    responses: usize,
    done: bool,
    failed: bool,
}

struct Cluster {
    nodes: Vec<Node>,
    wire: Wire,
    queue: BinaryHeap<Ev>,
    seq: u64,
    hop_us: u64,
    model: Box<dyn workloads::Model>,
    target_ops: u64,
    issued: u64,
    last_issue_us: u64,
    next_request: Vec<u64>,
    inflight: BTreeMap<(u32, u64), InFlight>,
    client_inbound: Vec<FrameAccumulator>,
    failed: u64,
    setup_ns: Option<u64>,
    latency_ns: Vec<u64>,
    queue_wait_ns: Vec<u64>,
    step_node: Vec<u16>,
    step_cpu_ns: Vec<u64>,
    corrupt_response: Option<u64>,
}

impl Wire {
    fn record_error(&mut self, e: String) {
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    /// Frames `msg` into the step's chunk for `dest`.
    fn encode(&mut self, dest: usize, msg: Message, out: &mut StepOut) {
        let i = match out.chunks.iter().position(|(d, _)| *d == dest) {
            Some(i) => i,
            None => {
                out.chunks.push((dest, Vec::new()));
                out.chunks.len() - 1
            }
        };
        let chunk = &mut out.chunks[i].1;
        let before = chunk.len();
        let scratch = &mut self.scratch;
        // The message is dropped inside the span, as the TCP writer
        // thread drops it after writing.
        traced(self.tracer.as_ref(), Layer::Encode, || {
            write_frame_into(chunk, &msg, scratch).map(|()| drop(msg))
        })
        .expect("writing to memory cannot fail");
        self.counts.frames += 1;
        self.counts.frame_bytes += (chunk.len() - before) as u64;
    }

    /// Hands `event` to the replica and executes its actions.
    fn feed(&mut self, node: &mut Node, now: Time, event: Event, out: &mut StepOut) {
        self.counts.events += 1;
        let replica = &mut node.replica;
        let actions = traced(self.tracer.as_ref(), Layer::Engine, || {
            replica.on_event(now, event)
        });
        for action in actions {
            match action {
                Action::Send { to, msg } => match usize::try_from(to.value()) {
                    Ok(dest) if dest < self.nodes => self.encode(dest, msg, out),
                    _ => self.record_error(format!("send to unknown process {to}")),
                },
                Action::Respond {
                    client,
                    request,
                    payload,
                } => self.encode(
                    self.nodes,
                    Message::Response {
                        client,
                        request,
                        payload,
                    },
                    out,
                ),
                Action::SetTimer { after_us, timer } => out.timers.push((after_us, timer)),
                Action::Persist {
                    record,
                    sync,
                    token,
                } => {
                    if let PersistRecord::Checkpoint { snapshot, .. } = &record {
                        self.counts.checkpoints += 1;
                        self.counts.checkpoint_bytes += snapshot.len() as u64;
                    }
                    if sync {
                        self.record_error("a persist asked for fsync".into());
                    }
                    if let Some(storage) = node.storage.as_mut() {
                        self.counts.persists += 1;
                        self.counts.persist_bytes += codec::record_len(&record) as u64;
                        let written = traced(self.tracer.as_ref(), Layer::Storage, || {
                            storage.persist(&record, false)
                        });
                        if let Err(e) = written {
                            self.record_error(format!("persist failed: {e}"));
                        }
                    }
                    out.persisted.push(token);
                }
                Action::TrimStorage { .. } => self.counts.storage_trims += 1,
                Action::Deliver { .. } => {
                    self.record_error("a delivery escaped the replica".into());
                }
            }
        }
    }
}

impl Cluster {
    fn new(
        setup: workloads::Setup,
        tracer: Option<SharedTracer>,
        opts: &Options,
    ) -> Result<Self, String> {
        let n = setup.nodes.len();
        let policy = CheckpointPolicy {
            interval_us: setup.checkpoint_interval_us,
            sync: false,
        };
        let mut nodes = Vec::with_capacity(n);
        {
            let _guard = BUILD_LOCK
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if setup.batching {
                std::env::set_var("MRP_BATCH", "1");
            } else {
                std::env::remove_var("MRP_BATCH");
            }
            for (i, (id, service, group)) in setup.nodes.into_iter().enumerate() {
                assert_eq!(id.value() as usize, i, "replica ids are 0..n");
                let storage = if setup.storage {
                    Some(open_storage(&opts.tmp.join(format!("node{i}")))?)
                } else {
                    None
                };
                nodes.push(Node {
                    replica: EngineReplica::new(
                        setup.engine,
                        id,
                        setup.config.clone(),
                        BenchApp::new(service, tracer.clone()),
                        policy,
                    ),
                    inbound: (0..=n).map(|_| FrameAccumulator::new()).collect(),
                    storage,
                    group,
                    free_ns: 0,
                    cpu_ns: 0,
                });
            }
            std::env::remove_var("MRP_BATCH");
        }
        let hop_us = Topology::lan(n as u32).base_latency_us(ProcessId::new(0), ProcessId::new(1));
        let mut cluster = Self {
            nodes,
            wire: Wire {
                tracer,
                scratch: BytesMut::new(),
                counts: Counts::default(),
                errors: Vec::new(),
                nodes: n,
            },
            queue: BinaryHeap::new(),
            seq: 0,
            hop_us,
            model: setup.model,
            target_ops: setup.ops,
            issued: 0,
            last_issue_us: 0,
            next_request: vec![0; setup.sessions as usize],
            inflight: BTreeMap::new(),
            client_inbound: (0..n).map(|_| FrameAccumulator::new()).collect(),
            failed: 0,
            setup_ns: None,
            latency_ns: Vec::new(),
            queue_wait_ns: Vec::new(),
            step_node: Vec::new(),
            step_cpu_ns: Vec::new(),
            corrupt_response: opts.corrupt_response,
        };
        for at in 0..n {
            cluster.push(0, 0, NO_SPAN, at, Kind::Start);
        }
        for session in 0..setup.sessions {
            cluster.issue(session, 0, 0);
        }
        Ok(cluster)
    }

    fn push(&mut self, t_us: u64, priced_ns: u64, cause: u32, at: usize, kind: Kind) {
        self.seq += 1;
        self.queue.push(Ev {
            t_us,
            seq: self.seq,
            priced_ns,
            cause,
            at,
            kind,
        });
    }

    fn run(&mut self, wall0: Instant) {
        let clients = self.nodes.len();
        while let Some(ev) = self.queue.pop() {
            if self.issued == self.target_ops && self.inflight.is_empty() {
                self.wire.counts.end_us = ev.t_us;
                return;
            }
            if ev.t_us > self.last_issue_us + STALL_LIMIT_US {
                self.wire.counts.end_us = ev.t_us;
                break;
            }
            if ev.at == clients {
                self.client_step(ev);
                if self.setup_ns.is_none() && self.wire.counts.ops > 0 {
                    self.setup_ns = Some(elapsed_ns(wall0));
                }
            } else {
                self.node_step(ev);
            }
        }
        self.wire
            .record_error("the run stalled before every operation completed".into());
    }

    fn node_step(&mut self, ev: Ev) {
        let at = ev.at;
        let now = Time::from_micros(ev.t_us);
        let node = &mut self.nodes[at];
        let wire = &mut self.wire;
        let mut out = StepOut::default();
        let step = wire
            .tracer
            .as_ref()
            .map_or(NO_SPAN, |t| t.borrow_mut().begin_step(at as u16, ev.cause));
        let t0 = Instant::now();
        match ev.kind {
            Kind::Start => wire.feed(node, now, Event::Start, &mut out),
            Kind::Timer(timer) => wire.feed(node, now, Event::Timer(timer), &mut out),
            Kind::PersistDone(token) => wire.feed(node, now, Event::PersistDone(token), &mut out),
            Kind::Net { from, bytes } => {
                let from_id = ProcessId::new(from as u32);
                // The read buffer is released inside the span, as the TCP
                // reader thread releases it.
                traced(wire.tracer.as_ref(), Layer::Decode, || {
                    node.inbound[from].extend(&bytes);
                    drop(bytes);
                });
                loop {
                    let link = &mut node.inbound[from];
                    match traced(wire.tracer.as_ref(), Layer::Decode, || link.next()) {
                        Ok(Some(msg)) => {
                            wire.feed(node, now, Event::Message { from: from_id, msg }, &mut out);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            wire.record_error(format!("undecodable frame from {from}: {e}"));
                            break;
                        }
                    }
                }
            }
        }
        let cpu_ns = elapsed_ns(t0);
        if let Some(t) = &wire.tracer {
            t.borrow_mut().end(step);
        }
        let start = node.free_ns.max(ev.priced_ns);
        let end = start + cpu_ns;
        node.free_ns = end;
        node.cpu_ns += cpu_ns;
        self.queue_wait_ns.push(start - ev.priced_ns);
        self.step_node.push(at as u16);
        self.step_cpu_ns.push(cpu_ns);
        let hop_ns = self.hop_us * 1_000;
        for (dest, bytes) in out.chunks {
            self.push(
                ev.t_us + self.hop_us,
                end + hop_ns,
                step,
                dest,
                Kind::Net { from: at, bytes },
            );
        }
        for (after_us, timer) in out.timers {
            self.push(
                ev.t_us + after_us,
                end + after_us * 1_000,
                step,
                at,
                Kind::Timer(timer),
            );
        }
        for token in out.persisted {
            self.push(ev.t_us, end, step, at, Kind::PersistDone(token));
        }
    }

    /// Sends the next operation of `session` (client side: not charged).
    fn issue(&mut self, session: u32, t_us: u64, priced_ns: u64) {
        if self.issued == self.target_ops {
            return;
        }
        self.issued += 1;
        self.last_issue_us = t_us;
        let op = self.model.next_op(session);
        let request = {
            let next = &mut self.next_request[session as usize];
            *next += 1;
            *next
        };
        let msg = Message::Request {
            client: client_of(session),
            request,
            groups: op.groups.clone(),
            payload: op.payload.clone(),
        };
        let mut out = StepOut::default();
        let dest = op.proposer.value() as usize;
        let clients = self.nodes.len();
        // Client-side framing is load-generator work: counted on the
        // wire, but outside any node's timed step.
        let tracer = self.wire.tracer.take();
        self.wire.encode(dest, msg, &mut out);
        self.wire.tracer = tracer;
        for (dest, bytes) in out.chunks {
            self.push(
                t_us + self.hop_us,
                priced_ns + self.hop_us * 1_000,
                NO_SPAN,
                dest,
                Kind::Net {
                    from: clients,
                    bytes,
                },
            );
        }
        self.inflight.insert(
            (session, request),
            InFlight {
                session,
                op,
                issued_us: t_us,
                issued_ns: priced_ns,
                parts: BTreeMap::new(),
                responses: 0,
                done: false,
                failed: false,
            },
        );
    }

    fn client_step(&mut self, ev: Ev) {
        let Kind::Net { from, bytes } = ev.kind else {
            unreachable!("clients only receive frames");
        };
        self.client_inbound[from].extend(&bytes);
        loop {
            match self.client_inbound[from].next() {
                Ok(Some(Message::Response {
                    client,
                    request,
                    payload,
                })) => self.on_response(client, request, payload, ev.t_us, ev.priced_ns),
                Ok(Some(other)) => self
                    .wire
                    .record_error(format!("client received a non-response {other:?}")),
                Ok(None) => break,
                Err(e) => {
                    self.wire
                        .record_error(format!("undecodable response frame: {e}"));
                    break;
                }
            }
        }
    }

    fn on_response(
        &mut self,
        client: ClientId,
        request: u64,
        payload: Bytes,
        t_us: u64,
        t_ns: u64,
    ) {
        let counts = &mut self.wire.counts;
        counts.responses += 1;
        let payload = if self.corrupt_response == Some(counts.responses) {
            let mut bytes = payload.to_vec();
            if let Some(last) = bytes.last_mut() {
                *last ^= 0xff;
            }
            Bytes::from(bytes)
        } else {
            payload
        };
        let session = (client.value() - 1) as u32;
        let Some(f) = self.inflight.get_mut(&(session, request)) else {
            self.wire
                .record_error(format!("response to unknown request {client}/{request}"));
            return;
        };
        f.responses += 1;
        let verdict = self
            .model
            .part_of(&payload)
            .and_then(|part| match f.parts.get(&part) {
                Some(first) if *first == payload => Ok(()),
                Some(_) => Err(format!(
                    "replicas of part {part} answered {:?} differently",
                    f.op.detail
                )),
                None => {
                    let checked = self.model.check(&f.op, part, &payload);
                    f.parts.insert(part, payload);
                    checked
                }
            });
        if f.responses > f.op.expect {
            f.failed = true;
            self.wire.record_error(format!(
                "more than {} responses to {:?}",
                f.op.expect, f.op.detail
            ));
        }
        if let Err(e) = verdict {
            f.failed = true;
            self.wire.record_error(e);
        }
        let (f_session, need) = (f.session, f.op.need);
        let mut next = None;
        if !f.done && f.parts.len() >= need {
            f.done = true;
            self.wire.counts.ops += 1;
            self.wire.counts.responses_needed += need as u64;
            self.wire
                .counts
                .protocol_latency_us
                .push(t_us - f.issued_us);
            self.latency_ns.push(t_ns - f.issued_ns);
            next = Some(f_session);
        }
        if f.done && f.responses == f.op.expect {
            let f = self.inflight.remove(&(session, request)).expect("present");
            self.failed += u64::from(f.failed);
        }
        if let Some(s) = next {
            self.issue(s, t_us, t_ns);
        }
    }

    fn finish(mut self, tracer: Option<SharedTracer>) -> Round {
        for f in self.inflight.values() {
            self.failed += 1;
            let what = if f.done {
                "missing replica responses"
            } else {
                "unanswered"
            };
            self.wire.record_error(format!("{what}: {:?}", f.op.detail));
        }
        let mut counts = std::mem::take(&mut self.wire.counts);
        counts.protocol_latency_us.sort_unstable();
        counts.digests = self
            .nodes
            .iter()
            .map(|n| n.replica.app().digest())
            .collect();
        let mut by_group: BTreeMap<u16, u64> = BTreeMap::new();
        for (node, &digest) in self.nodes.iter().zip(&counts.digests) {
            if *by_group.entry(node.group).or_insert(digest) != digest {
                self.wire
                    .record_error(format!("replicas of group {} diverged", node.group));
            }
        }
        let services: Vec<&Service> = self
            .nodes
            .iter()
            .map(|n| n.replica.app().service())
            .collect();
        if let Err(e) = self.model.finish(&services) {
            self.wire.record_error(e);
        }
        for node in &self.nodes {
            counts.executes += node.replica.app().executes();
            let tel = node.replica.telemetry();
            counts.batch_flushes += tel.counter("batch.flushes");
            counts.batch_values += tel.counter("batch.submitted_values");
        }
        let self_times = tracer
            .as_ref()
            .map(|t| t.borrow().self_times(self.nodes.len()));
        Round {
            attempted: self.issued,
            failed: self.failed,
            errors: self.wire.errors,
            setup_ns: self.setup_ns.unwrap_or(0),
            node_cpu_ns: self.nodes.iter().map(|n| n.cpu_ns).collect(),
            priced_end_ns: self.nodes.iter().map(|n| n.free_ns).max().unwrap_or(0),
            latency_ns: self.latency_ns,
            queue_wait_ns: self.queue_wait_ns,
            step_node: self.step_node,
            step_cpu_ns: self.step_cpu_ns,
            counts,
            self_times,
            tracer,
        }
    }
}

fn client_of(session: u32) -> ClientId {
    ClientId::new(u64::from(session) + 1)
}

fn open_storage(dir: &Path) -> Result<DirStorage, String> {
    DirStorage::open(dir).map_err(|e| format!("opening storage in {}: {e}", dir.display()))
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).expect("run shorter than 584 years")
}
