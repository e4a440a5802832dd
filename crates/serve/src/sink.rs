//! [`WireSink`]: the [`RecordSink`] that turns completed slots into wire
//! messages.
//!
//! It overrides [`RecordSink::record_decision`] — the context-carrying
//! hook added for exactly this purpose — to publish a
//! [`DecisionMsg`](crate::proto::DecisionMsg) per slot: record fields for
//! the realized costs, [`DecisionContext`] for the speed vector and the
//! actually-dispatched load split, and the policy's
//! [`telemetry`](coca_dcsim::Policy::telemetry) for controller internals.
//!
//! Published records are not kept. The sink wraps a [`SummarySink`], so
//! the service holds running totals, not one record per slot, and its
//! checkpoints carry [`SinkState::Summary`]: the same size at slot 24 as
//! at slot 8,760. Nothing here yields a
//! [`SimOutcome`](coca_dcsim::SimOutcome); the decision stream is the
//! service's per-slot output.

use std::sync::Arc;

use coca_dcsim::{DecisionContext, RecordSink, SinkState, SlotRecord, SummarySink};

use crate::proto::{DecisionMsg, OutMsg};
use crate::publish::Publisher;

/// Record sink that publishes each slot's decision to a [`Publisher`].
pub struct WireSink {
    inner: SummarySink,
    // audit:transient(lane name fixed at construction; the host rebuilds the sink before restore)
    policy: String,
    // audit:transient(output handle injected at construction, not run state)
    publisher: Arc<Publisher>,
}

impl WireSink {
    /// Creates a sink publishing decisions under `policy`'s name.
    pub fn new(policy: impl Into<String>, publisher: Arc<Publisher>) -> Self {
        Self { inner: SummarySink::new(), policy: policy.into(), publisher }
    }
}

impl RecordSink for WireSink {
    fn record(&mut self, rec: &SlotRecord) -> Result<(), String> {
        self.inner.record(rec)
    }

    fn record_decision(
        &mut self,
        rec: &SlotRecord,
        ctx: &DecisionContext<'_>,
    ) -> Result<(), String> {
        self.inner.record(rec)?;
        self.publisher.publish(&OutMsg::Decision(DecisionMsg {
            t: rec.t,
            policy: self.policy.clone(),
            levels: ctx.levels.to_vec(),
            loads: ctx.loads.to_vec(),
            servers_on: rec.servers_on,
            total_cost: rec.total_cost,
            brown_energy: rec.brown_energy,
            telemetry: ctx.telemetry,
        }));
        Ok(())
    }

    fn snapshot(&self) -> Result<SinkState, String> {
        self.inner.snapshot()
    }

    fn restore(&mut self, state: &SinkState) -> Result<(), String> {
        self.inner.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Mutex;

    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn record(t: usize) -> SlotRecord {
        SlotRecord {
            t,
            arrival_rate: 10.0,
            price: 0.05,
            onsite: 1.0,
            offsite: 2.0,
            facility_energy: 3.0,
            brown_energy: 2.5,
            switching_energy: 0.0,
            electricity_cost: 0.125,
            delay_cost: 0.5,
            total_cost: 0.625,
            delay: 0.05,
            servers_on: 8,
        }
    }

    #[test]
    fn publishes_one_decision_per_slot_and_keeps_only_totals() {
        let publisher = Publisher::new();
        let buf = Arc::new(Mutex::new(Vec::new()));
        publisher.subscribe(Box::new(SharedBuf(Arc::clone(&buf))));
        let mut sink = WireSink::new("coca", Arc::clone(&publisher));

        let levels = [2usize, 0];
        let loads = [10.0, 0.0];
        let ctx = DecisionContext { levels: &levels, loads: &loads, telemetry: None };
        sink.record_decision(&record(0), &ctx).unwrap();
        sink.record_decision(&record(1), &ctx).unwrap();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let msgs: Vec<OutMsg> =
            text.lines().map(|l| OutMsg::parse(l).unwrap()).collect();
        assert_eq!(msgs.len(), 2);
        let OutMsg::Decision(d) = &msgs[0] else { panic!("not a decision: {:?}", msgs[0]) };
        assert_eq!(d.t, 0);
        assert_eq!(d.levels, vec![2, 0]);
        assert_eq!(d.loads, vec![10.0, 0.0]);
        assert_eq!(d.servers_on, 8);

        // The checkpoint surface carries running totals, not records.
        let SinkState::Summary(summary) = sink.snapshot().unwrap() else {
            panic!("wire sink must snapshot a summary")
        };
        assert_eq!(summary.slots, 2);
        assert_eq!(summary.total_cost, 1.25);
        assert!(sink.take_records().is_none());
        let mut restored = WireSink::new("coca", Publisher::new());
        restored.restore(&SinkState::Summary(summary)).unwrap();
        assert_eq!(restored.snapshot().unwrap(), SinkState::Summary(summary));
        assert!(restored.restore(&SinkState::Records(vec![record(0)])).is_err());
    }
}
