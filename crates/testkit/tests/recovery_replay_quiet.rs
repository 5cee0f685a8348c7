//! Recovery replay must be faults-quiet: replaying the committed batch
//! log with the pre-crash [`FaultPlan`] installed must not re-inject a
//! single worker panic (no unwinding anywhere), yet the replayed outcome
//! vector must reproduce every originally injected `Aborted { reason }`
//! byte-identically.
//!
//! The proof is a process-global panic hook counting unwinds whose
//! payload carries the injected-fault marker prefix: positive during the
//! live run, exactly zero during replay, positive again once the
//! recovered replica executes *new* batches under the reinstalled plan.
//! This file holds a single test because the panic hook is global.

use prognosticator_core::faults::INJECTED_PANIC_PREFIX;
use prognosticator_core::{baselines, AbortReason, FaultPlan, Replica, TxOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use testkit::{TestWorkload, WorkloadKind};

static INJECTED_UNWINDS: AtomicUsize = AtomicUsize::new(0);

fn install_counting_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.starts_with(INJECTED_PANIC_PREFIX) {
            // Count silently: these unwinds are expected in the live run
            // and the whole point is asserting their absence in replay.
            INJECTED_UNWINDS.fetch_add(1, Ordering::SeqCst);
        } else {
            previous(info);
        }
    }));
}

#[test]
fn replay_is_quiet_but_reproduces_injected_aborts() {
    install_counting_hook();
    let workload = TestWorkload::new(WorkloadKind::SmallBank);
    let stream = workload.gen_stream(0xD0_5EED, 5, 20);
    let plan = FaultPlan::quiet(0xD0_5EED).with_worker_panics(200);

    // ---- Live run: injected panics unwind worker threads. ----
    let mut live = Replica::with_store(
        baselines::mq_mf(3),
        Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    live.set_fault_plan(Some(plan.clone()));
    let mut live_outcomes: Vec<Vec<TxOutcome>> = Vec::new();
    for batch in &stream {
        live_outcomes.push(live.execute_batch(batch.clone()).outcomes);
    }
    let live_digest = live.state_digest();
    live.shutdown();

    let live_unwinds = INJECTED_UNWINDS.load(Ordering::SeqCst);
    assert!(live_unwinds > 0, "the live run should have injected worker panics");
    let injected_aborts: Vec<&AbortReason> = live_outcomes
        .iter()
        .flatten()
        .filter_map(|o| match o {
            TxOutcome::Aborted { reason: r @ AbortReason::InjectedFault(_) } => Some(r),
            _ => None,
        })
        .collect();
    assert!(!injected_aborts.is_empty(), "injected panics must surface as aborts");

    // ---- Recovery replay: zero unwinds, identical outcome vectors. ----
    let (mut recovered, report) = Replica::recover(
        baselines::mq_mf(2),
        Arc::clone(workload.catalog()),
        workload.fresh_store(),
        stream,
        Some(&plan),
        Some(live_digest),
    );
    assert_eq!(
        INJECTED_UNWINDS.load(Ordering::SeqCst),
        live_unwinds,
        "recovery replay re-injected worker panics — replay must be faults-quiet"
    );
    let replayed: Vec<Vec<TxOutcome>> =
        report.outcomes.iter().map(|o| o.outcomes.clone()).collect();
    assert_eq!(
        replayed, live_outcomes,
        "replayed outcome vectors must reproduce the live run, injected aborts included"
    );
    assert_eq!(report.digest, live_digest);

    // ---- New traffic: the original plan is live again post-recovery. ----
    let fresh = workload.gen_stream(0xAF_7E12, 3, 20);
    for batch in fresh {
        recovered.execute_batch(batch);
    }
    assert!(
        INJECTED_UNWINDS.load(Ordering::SeqCst) > live_unwinds,
        "after recovery the reinstalled plan must inject faults on new batches again"
    );
    recovered.shutdown();
}
