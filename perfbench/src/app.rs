//! The application wrapper every benchmark replica hosts: it forwards to
//! the real MRP-Store or dLog state machine, counts executions and, in
//! the traced run, opens a span around each call.

use crate::trace::{traced, Layer, SharedTracer};
use bytes::Bytes;
use mrp_dlog::DLogApp;
use mrp_store::StoreApp;
use multiring_paxos::app::{Application, Delivery, Reply};

/// The service state machine behind a replica.
#[derive(Debug)]
pub enum Service {
    /// An MRP-Store partition replica.
    Store(StoreApp),
    /// A dLog server.
    Log(DLogApp),
}

/// [`Service`] plus execution counting and optional spans.
#[derive(Debug)]
pub struct BenchApp {
    service: Service,
    tracer: Option<SharedTracer>,
    executes: u64,
}

impl BenchApp {
    /// Wraps `service`; spans are recorded into `tracer` when given.
    pub fn new(service: Service, tracer: Option<SharedTracer>) -> Self {
        Self {
            service,
            tracer,
            executes: 0,
        }
    }

    /// Commands executed.
    pub fn executes(&self) -> u64 {
        self.executes
    }

    /// The wrapped service.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// FNV-1a digest of the service snapshot (outside any timing).
    pub fn digest(&self) -> u64 {
        let snap = match &self.service {
            Service::Store(s) => s.snapshot(),
            Service::Log(l) => l.snapshot(),
        };
        let mut h = multiring_paxos::digest::Fnv1a::new();
        h.write(&snap);
        h.finish()
    }
}

impl Application for BenchApp {
    fn execute(&mut self, delivery: &Delivery) -> Vec<Reply> {
        self.executes += 1;
        let service = &mut self.service;
        traced(self.tracer.as_ref(), Layer::AppExecute, || match service {
            Service::Store(s) => s.execute(delivery),
            Service::Log(l) => l.execute(delivery),
        })
    }

    fn snapshot(&self) -> Bytes {
        traced(self.tracer.as_ref(), Layer::AppSnapshot, || {
            match &self.service {
                Service::Store(s) => s.snapshot(),
                Service::Log(l) => l.snapshot(),
            }
        })
    }

    fn restore(&mut self, snapshot: &Bytes) {
        match &mut self.service {
            Service::Store(s) => s.restore(snapshot),
            Service::Log(l) => l.restore(snapshot),
        }
    }
}
