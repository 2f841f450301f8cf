//! The benchmark workloads: deployments built from the services' own
//! `StoreDeployment` / `DLogDeployment`, seeded closed-loop traffic, and
//! the model every response is verified against.

use crate::app::Service;
use bytes::{Buf, Bytes};
use mrp_amcast::EngineKind;
use mrp_dlog::{DLogApp, DLogCommand, DLogDeployment, DLogResponse, DLogTopology, LogId};
use mrp_store::{StoreApp, StoreCommand, StoreDeployment, StoreResponse, StoreTopology};
use mrp_ycsb::generator::{KeyChooser, SmallRng};
use mrp_ycsb::workload::key_for;
use multiring_paxos::config::{ClusterConfig, RingTuning, StorageMode};
use multiring_paxos::types::{GroupId, ProcessId};
use std::collections::BTreeMap;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["store-ring-ycsb", "store-wbcast-scan", "dlog-wbcast-batch"];

/// How much work one round does.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A few hundred operations, for the self-tests.
    Tiny,
}

/// One client operation: the command and where it goes.
#[derive(Clone, Debug)]
pub struct Op {
    /// Destination group set γ.
    pub groups: Vec<GroupId>,
    /// The proposer the request is sent to.
    pub proposer: ProcessId,
    /// Encoded service command.
    pub payload: Bytes,
    /// Distinct response parts (partitions) the client needs.
    pub need: usize,
    /// Responses the deployment will send in total (one per delivering
    /// replica).
    pub expect: usize,
    /// What the model needs to verify the responses.
    pub detail: Detail,
}

/// Model-side description of an operation.
#[derive(Clone, Debug)]
pub enum Detail {
    /// Store read of key index `key`.
    Read { key: u64 },
    /// Store update of key index `key`.
    Update { key: u64 },
    /// Store scan over key indices `lo..=hi`.
    Scan { lo: u64, hi: u64 },
    /// dLog append (or multi-append) to `logs` by `session`.
    Append { session: u32, logs: Vec<LogId> },
}

/// Generates operations and verifies responses against a seeded model.
pub trait Model {
    /// Draws the next operation of `session`.
    fn next_op(&mut self, session: u32) -> Op;
    /// Which response part (partition) `payload` answers.
    ///
    /// # Errors
    ///
    /// A payload that does not decode.
    fn part_of(&self, payload: &Bytes) -> Result<u16, String>;
    /// Verifies the first response of part `part` of `op`.
    ///
    /// # Errors
    ///
    /// A response the model does not allow.
    fn check(&mut self, op: &Op, part: u16, payload: &Bytes) -> Result<(), String>;
    /// Verifies the final replica states once every operation completed.
    ///
    /// # Errors
    ///
    /// A final state the acknowledged operations do not explain.
    fn finish(&self, services: &[&Service]) -> Result<(), String>;
}

/// Everything one round needs: the deployment, the preloaded replicas
/// and the client model.
pub struct Setup {
    /// Engine.
    pub engine: EngineKind,
    /// Cluster configuration.
    pub config: ClusterConfig,
    /// Replica processes (ids `0..n`) with their preloaded services and
    /// digest group: replicas of one group must end in identical states.
    pub nodes: Vec<(ProcessId, Service, u16)>,
    /// Checkpoint interval of every replica, microseconds.
    pub checkpoint_interval_us: u64,
    /// Whether persists go through `DirStorage`.
    pub storage: bool,
    /// Whether submission batching (`MRP_BATCH`) is on.
    pub batching: bool,
    /// Closed-loop client sessions.
    pub sessions: u32,
    /// Operations issued per round.
    pub ops: u64,
    /// The client model.
    pub model: Box<dyn Model>,
}

/// Builds workload `name` for `seed`.
///
/// # Errors
///
/// An unknown workload name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Setup, String> {
    let tiny = scale == Scale::Tiny;
    // Tiny rounds last about a twenty-fifth of the virtual time, so
    // their checkpoint cycles are as many.
    let interval = |full_us: u64| if tiny { full_us / 25 } else { full_us };
    match name {
        "store-ring-ycsb" => {
            let tuning = RingTuning {
                storage: StorageMode::AsyncDisk,
                trim_interval_us: interval(300_000),
                ..RingTuning::datacenter()
            };
            let topo = StoreTopology::local(2, tuning).engine(EngineKind::MultiRing);
            Ok(store(
                &StoreDeployment::build(&topo),
                StoreParams {
                    records: if tiny { 500 } else { 4_000 },
                    value_bytes: 1024,
                    read_pct: 50,
                    update_pct: 45,
                    sessions: 16,
                    ops: if tiny { 300 } else { 6_000 },
                    checkpoint_interval_us: interval(300_000),
                    storage: true,
                },
                seed,
            ))
        }
        "store-wbcast-scan" => {
            let topo =
                StoreTopology::independent(3, RingTuning::datacenter()).engine(EngineKind::Wbcast);
            Ok(store(
                &StoreDeployment::build(&topo),
                StoreParams {
                    records: if tiny { 600 } else { 30_000 },
                    value_bytes: 64,
                    read_pct: 70,
                    update_pct: 10,
                    sessions: 8,
                    ops: if tiny { 300 } else { 20_000 },
                    checkpoint_interval_us: interval(50_000),
                    storage: false,
                },
                seed,
            ))
        }
        "dlog-wbcast-batch" => {
            let topo = DLogTopology {
                common_ring: false,
                ..DLogTopology::new(2, RingTuning::datacenter()).engine(EngineKind::Wbcast)
            };
            Ok(dlog(
                &DLogDeployment::build(&topo),
                if tiny { 64 } else { 20_000 },
                if tiny { 300 } else { 20_000 },
                interval(50_000),
                seed,
            ))
        }
        other => Err(format!(
            "unknown workload {other:?} (expected one of {NAMES:?})"
        )),
    }
}

struct StoreParams {
    records: u64,
    value_bytes: usize,
    read_pct: u64,
    update_pct: u64,
    sessions: u32,
    ops: u64,
    checkpoint_interval_us: u64,
    storage: bool,
}

/// Longest scan, in consecutive keys.
const MAX_SCAN: u64 = 10;

/// A store value: key index and version, padded to the value size, so a
/// read can be traced back to the write that produced it.
fn store_value(key: u64, version: u64, len: usize) -> Bytes {
    let mut buf = vec![(key ^ version) as u8; len];
    buf[..8].copy_from_slice(&key.to_le_bytes());
    buf[8..16].copy_from_slice(&version.to_le_bytes());
    Bytes::from(buf)
}

fn store(d: &StoreDeployment, p: StoreParams, seed: u64) -> Setup {
    let records: Vec<(u16, Bytes, Bytes)> = (0..p.records)
        .map(|i| {
            let key = Bytes::from(key_for(i));
            let part = d.partition_map.group_of(&key).value();
            (part, key, store_value(i, 0, p.value_bytes))
        })
        .collect();
    let mut nodes = Vec::new();
    for (process, part) in d.all_replicas() {
        let mut app = StoreApp::new(part);
        for (_, key, value) in records.iter().filter(|(p, _, _)| *p == part) {
            app.load(key.clone(), value.clone());
        }
        nodes.push((process, Service::Store(app), part));
    }
    nodes.sort_by_key(|(process, _, _)| *process);
    Setup {
        engine: d.engine,
        config: d.config.clone(),
        nodes,
        checkpoint_interval_us: p.checkpoint_interval_us,
        storage: p.storage,
        batching: false,
        sessions: p.sessions,
        ops: p.ops,
        model: Box::new(StoreModel {
            deployment: d.clone(),
            rng: SmallRng::new(seed),
            keys: KeyChooser::scrambled_zipfian(p.records),
            records: p.records,
            versions: vec![0; usize::try_from(p.records).expect("record count fits")],
            value_bytes: p.value_bytes,
            read_pct: p.read_pct,
            update_pct: p.update_pct,
        }),
    }
}

struct StoreModel {
    deployment: StoreDeployment,
    rng: SmallRng,
    keys: KeyChooser,
    records: u64,
    /// Highest version issued per key (0 = the preloaded value).
    versions: Vec<u64>,
    value_bytes: usize,
    read_pct: u64,
    update_pct: u64,
}

impl StoreModel {
    fn expect(&self, groups: &[GroupId]) -> usize {
        // With a global ring every replica delivers; otherwise the
        // replicas of each addressed partition do.
        groups
            .iter()
            .map(|g| {
                if Some(*g) == self.deployment.global_group {
                    self.deployment.replicas.values().map(Vec::len).sum()
                } else {
                    self.deployment.replicas[&g.value()].len()
                }
            })
            .sum()
    }

    /// Checks that `value` is a version of key `key` that was written.
    fn check_value(&self, key: u64, value: &Bytes) -> Result<(), String> {
        let mut buf = value.clone();
        if value.len() != self.value_bytes {
            return Err(format!(
                "key {key}: malformed value of {} bytes",
                value.len()
            ));
        }
        let (k, version) = (buf.get_u64_le(), buf.get_u64_le());
        if k != key {
            return Err(format!("key {key}: holds the value of key {k}"));
        }
        if version > self.versions[key as usize] {
            return Err(format!("key {key}: version {version} was never written"));
        }
        if *value != store_value(key, version, self.value_bytes) {
            return Err(format!("key {key}: corrupted value of version {version}"));
        }
        Ok(())
    }
}

fn key_index(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.strip_prefix(b"user")?)
        .ok()?
        .parse()
        .ok()
}

impl Model for StoreModel {
    fn next_op(&mut self, _session: u32) -> Op {
        let roll = self.rng.below(100);
        let key = self.keys.next(&mut self.rng);
        let (cmd, detail) = if roll < self.read_pct {
            (
                StoreCommand::Read {
                    key: Bytes::from(key_for(key)),
                },
                Detail::Read { key },
            )
        } else if roll < self.read_pct + self.update_pct {
            let version = &mut self.versions[key as usize];
            *version += 1;
            (
                StoreCommand::Update {
                    key: Bytes::from(key_for(key)),
                    value: store_value(key, *version, self.value_bytes),
                },
                Detail::Update { key },
            )
        } else {
            let hi = (key + self.rng.below(MAX_SCAN)).min(self.records - 1);
            (
                StoreCommand::Scan {
                    from: Bytes::from(key_for(key)),
                    to: Bytes::from(key_for(hi)),
                    limit: 0,
                },
                Detail::Scan { lo: key, hi },
            )
        };
        let groups = self.deployment.route(&cmd);
        assert!(
            self.deployment.atomic_multicast(&groups),
            "every store command travels as one multicast"
        );
        Op {
            proposer: self.deployment.proposer_of[&groups[0]],
            need: self.deployment.responses_needed(&cmd),
            expect: self.expect(&groups),
            payload: cmd.encode(),
            groups,
            detail,
        }
    }

    fn part_of(&self, payload: &Bytes) -> Result<u16, String> {
        StoreApp::unframe_response(payload)
            .map(|(part, _)| part)
            .ok_or_else(|| "undecodable store response".to_string())
    }

    fn check(&mut self, op: &Op, part: u16, payload: &Bytes) -> Result<(), String> {
        let (_, response) =
            StoreApp::unframe_response(payload).ok_or("undecodable store response")?;
        match (&op.detail, response) {
            (Detail::Read { key }, StoreResponse::Value(Some(v))) => self.check_value(*key, &v),
            (Detail::Update { .. }, StoreResponse::Ok) => Ok(()),
            (Detail::Scan { lo, hi }, StoreResponse::Entries(entries)) => {
                let mut expected = (*lo..=*hi).filter(|&i| {
                    self.deployment
                        .partition_map
                        .group_of(key_for(i).as_bytes())
                        == GroupId::new(part)
                });
                for (k, v) in &entries {
                    let i = key_index(k).ok_or("scan returned a foreign key")?;
                    if expected.next() != Some(i) {
                        return Err(format!(
                            "scan {lo}..={hi} on partition {part}: key {i} out of order or range"
                        ));
                    }
                    self.check_value(i, v)?;
                }
                match expected.next() {
                    None => Ok(()),
                    Some(i) => Err(format!(
                        "scan {lo}..={hi} on partition {part}: key {i} missing"
                    )),
                }
            }
            (detail, response) => Err(format!("{detail:?} answered with {response:?}")),
        }
    }

    fn finish(&self, _services: &[&Service]) -> Result<(), String> {
        // Replica agreement is checked by the harness (digests), and
        // every response was checked on arrival.
        Ok(())
    }
}

/// Per-log cache of each dLog server, bytes.
const LOG_CACHE: usize = 1 << 20;
/// Bytes per append.
const APPEND_BYTES: usize = 256;

fn dlog(
    d: &DLogDeployment,
    preload: u64,
    ops: u64,
    checkpoint_interval_us: u64,
    seed: u64,
) -> Setup {
    let logs: Vec<LogId> = d.group_of_log.keys().copied().collect();
    let data = Bytes::from(vec![0x5a; APPEND_BYTES]);
    let nodes = d
        .servers
        .iter()
        .map(|&s| {
            let mut app = DLogApp::new(logs.clone(), LOG_CACHE);
            for _ in 0..preload {
                for &log in &logs {
                    app.apply(&DLogCommand::Append {
                        log,
                        data: data.clone(),
                    });
                }
            }
            (s, Service::Log(app), 0)
        })
        .collect();
    let sessions = 24;
    Setup {
        engine: d.engine,
        config: d.config.clone(),
        nodes,
        checkpoint_interval_us,
        storage: false,
        batching: true,
        sessions,
        ops,
        model: Box::new(LogModel {
            deployment: d.clone(),
            rng: SmallRng::new(seed),
            logs,
            preload,
            positions: BTreeMap::new(),
            last_pos: BTreeMap::new(),
            seq: 0,
        }),
    }
}

struct LogModel {
    deployment: DLogDeployment,
    rng: SmallRng,
    logs: Vec<LogId>,
    preload: u64,
    /// Acknowledged positions per log.
    positions: BTreeMap<LogId, Vec<u64>>,
    /// Last position acknowledged to each (session, log).
    last_pos: BTreeMap<(u32, LogId), u64>,
    seq: u64,
}

impl Model for LogModel {
    fn next_op(&mut self, session: u32) -> Op {
        self.seq += 1;
        let mut data = vec![self.seq as u8; APPEND_BYTES];
        data[..8].copy_from_slice(&self.seq.to_le_bytes());
        let data = Bytes::from(data);
        let (cmd, logs) = if self.rng.below(100) < 10 {
            (
                DLogCommand::MultiAppend {
                    logs: self.logs.clone(),
                    data,
                },
                self.logs.clone(),
            )
        } else {
            let log = self.logs[self.rng.below(self.logs.len() as u64) as usize];
            (DLogCommand::Append { log, data }, vec![log])
        };
        let groups = self.deployment.route(&cmd).expect("every log has a group");
        Op {
            proposer: self.deployment.proposer_of[&groups[0]],
            need: 1,
            expect: self.deployment.servers.len(),
            payload: cmd.encode(),
            groups,
            detail: Detail::Append { session, logs },
        }
    }

    fn part_of(&self, _payload: &Bytes) -> Result<u16, String> {
        Ok(0)
    }

    fn check(&mut self, op: &Op, _part: u16, payload: &Bytes) -> Result<(), String> {
        let Detail::Append { session, logs } = &op.detail else {
            return Err(format!("unexpected dLog op {:?}", op.detail));
        };
        let response =
            DLogResponse::decode(&mut payload.clone()).ok_or("undecodable dLog response")?;
        let assigned: Vec<(LogId, u64)> = match response {
            DLogResponse::Pos(p) if logs.len() == 1 => vec![(logs[0], p)],
            DLogResponse::MultiPos(ps) if ps.iter().map(|(l, _)| *l).eq(logs.iter().copied()) => ps,
            other => return Err(format!("append to {logs:?} answered with {other:?}")),
        };
        for (log, pos) in assigned {
            if pos < self.preload {
                return Err(format!(
                    "log {log}: position {pos} reuses a preloaded entry"
                ));
            }
            let last = self.last_pos.insert((*session, log), pos);
            if last.is_some_and(|l| l >= pos) {
                return Err(format!(
                    "log {log}: session {session} got position {pos} after {last:?}"
                ));
            }
            self.positions.entry(log).or_default().push(pos);
        }
        Ok(())
    }

    fn finish(&self, services: &[&Service]) -> Result<(), String> {
        for &log in &self.logs {
            let mut got = self.positions.get(&log).cloned().unwrap_or_default();
            got.sort_unstable();
            let len = got.len() as u64;
            if !got.iter().copied().eq(self.preload..self.preload + len) {
                return Err(format!("log {log}: positions are not unique and gap-free"));
            }
            for s in services {
                let Service::Log(app) = s else {
                    return Err("dLog model over a non-log service".into());
                };
                if app.len_of(log) != Some(self.preload + len) {
                    return Err(format!(
                        "log {log}: server length {:?} but {len} appends acknowledged",
                        app.len_of(log)
                    ));
                }
            }
        }
        Ok(())
    }
}
