//! Golden pin of the paper's [`Experiment`] reports.
//!
//! Every field of every [`ExperimentReport`] the figure harnesses read is
//! pinned by its `f64::to_bits()` (counts as plain integers) for the paper's
//! named policies on the reference two-priority workload and on the
//! three-priority workload. Any change to the driving loop, its tie order,
//! the scheduler, the sprinter or the report conversion shows up here as a
//! bit flip.
//!
//! One field is pinned to a relative tolerance instead of bits: the total
//! delivered work of the preemptive baseline `P` (see [`TOTAL_WORK_REL`]).

use dias_core::{Experiment, ExperimentReport, Policy, SprintBudget, SprintPolicy};
use dias_engine::ClusterSpec;
use dias_workloads::{reference_two_priority, three_priority_stream, JobStream};

/// Measured jobs per configuration (warm-up is the default 10% on top).
const JOBS: usize = 2_000;

/// Relative tolerance on `total_work_secs` under preemption. Delivered work
/// is completed plus evicted machine-seconds; summing the two streams
/// separately or interleaved in event order rounds differently in the last
/// bits, so this one field is pinned to 1e-12 rather than bitwise. Under the
/// non-preemptive policies nothing is evicted and the field stays bitwise.
const TOTAL_WORK_REL: f64 = 1e-12;

fn limited(classes: usize) -> SprintPolicy {
    let extra = ClusterSpec::paper_reference().sprint_extra_power_w();
    SprintPolicy::top_class(classes, 65.0, SprintBudget::paper_limited(extra))
}

fn two_priority_policies() -> Vec<Policy> {
    vec![
        Policy::preemptive(2),
        Policy::non_preemptive(2),
        Policy::da_percent_high_to_low(&[0.0, 20.0]),
        Policy::da_percent_high_to_low(&[0.0, 20.0]).with_sprint(limited(2)),
        Policy::non_preemptive(2).with_sprint(limited(2)),
        Policy::non_preemptive(2).with_sprint(SprintPolicy::unlimited_for_top(2)),
    ]
}

fn three_priority_policies() -> Vec<Policy> {
    vec![
        Policy::preemptive(3),
        Policy::da_percent_high_to_low(&[0.0, 10.0, 20.0]),
        Policy::da_percent_high_to_low(&[0.0, 10.0, 20.0]).with_sprint(limited(3)),
    ]
}

/// The whole-run fields as `(name, bits)`, then per class (highest first)
/// `completed`, response mean/p95, execution and queueing means, evictions.
fn fingerprint(r: &ExperimentReport) -> Vec<(String, u64)> {
    let mut f = vec![
        ("horizon".to_string(), r.horizon_secs.to_bits()),
        ("energy".to_string(), r.energy_joules.to_bits()),
        ("idle_energy".to_string(), r.idle_energy_joules.to_bits()),
        ("wasted".to_string(), r.wasted_work_secs.to_bits()),
        ("total_work".to_string(), r.total_work_secs.to_bits()),
        ("utilization".to_string(), r.utilization.to_bits()),
        ("sprint_secs".to_string(), r.sprint_secs.to_bits()),
        ("evictions".to_string(), r.evictions),
    ];
    for (k, c) in r.per_class.iter().enumerate().rev() {
        f.push((format!("c{k}.completed"), c.completed));
        f.push((format!("c{k}.resp_mean"), c.response.mean().to_bits()));
        f.push((format!("c{k}.resp_p95"), c.response.p95().to_bits()));
        f.push((format!("c{k}.exec_mean"), c.execution.mean().to_bits()));
        f.push((format!("c{k}.queue_mean"), c.queueing.mean().to_bits()));
        f.push((format!("c{k}.evictions"), c.evictions));
    }
    f
}

fn render(f: &[(String, u64)]) -> String {
    f.iter()
        .map(|(name, v)| format!("{name}={v:#x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn check(stream: &JobStream, policies: Vec<Policy>, golden: &[(&str, &str)]) {
    let mut actual = Vec::new();
    for policy in policies {
        let preemptive = policy.is_preemptive();
        let report = Experiment::new(stream.clone(), policy)
            .jobs(JOBS)
            .run()
            .expect("the reference workloads are stable under every policy");
        actual.push((report.policy.clone(), preemptive, fingerprint(&report)));
    }
    let listing: String = actual
        .iter()
        .map(|(label, _, f)| format!("(\"{label}\", \"{}\"),\n", render(f)))
        .collect();
    assert_eq!(
        actual.len(),
        golden.len(),
        "golden table out of date; actual:\n{listing}"
    );
    for ((label, preemptive, f), (want_label, want)) in actual.iter().zip(golden) {
        assert_eq!(label, want_label, "actual:\n{listing}");
        let want: Vec<(String, u64)> = want
            .split(' ')
            .map(|kv| {
                let (name, hex) = kv.split_once('=').expect("name=value");
                let v = u64::from_str_radix(hex.trim_start_matches("0x"), 16).expect("hex");
                (name.to_string(), v)
            })
            .collect();
        assert_eq!(
            f.len(),
            want.len(),
            "{label}: field count; actual:\n{listing}"
        );
        for ((name, got), (want_name, want_v)) in f.iter().zip(&want) {
            assert_eq!(name, want_name, "{label}: field order");
            if *preemptive && name == "total_work" {
                let (g, w) = (f64::from_bits(*got), f64::from_bits(*want_v));
                assert!(
                    (g - w).abs() <= TOTAL_WORK_REL * w.abs(),
                    "{label}: total_work {g} vs golden {w}"
                );
            } else {
                assert_eq!(
                    got,
                    want_v,
                    "{label}: {name} is {} (golden {}); actual:\n{listing}",
                    f64::from_bits(*got),
                    f64::from_bits(*want_v)
                );
            }
        }
    }
}

const TWO_PRIORITY: &[(&str, &str)] = &[
    (
        "P",
        "horizon=0x4118ebfd942742b6 energy=0x41c076d8211cac34 idle_energy=0x41b5e769df3681a2 \
         wasted=0x41068370bd9ce91d total_work=0x414f5bcde66e77af utilization=0x3fea277a32e82856 \
         sprint_secs=0x0 evictions=0xa6 c1.completed=0xc1 \
         c1.resp_mean=0x40603c3d065b41c0 c1.resp_p95=0x4062d4c659622b96 c1.exec_mean=0x405fc9be8146e75c \
         c1.queue_mean=0x4005d7716df384a4 c1.evictions=0x0 c0.completed=0x70f \
         c0.resp_mean=0x407fefa339645a2f c0.resp_p95=0x40940d6d0a07ab44 c0.exec_mean=0x40627d967b5491d3 \
         c0.queue_mean=0x4076b0d7fbba1146 c0.evictions=0x96",
    ),
    (
        "NP",
        "horizon=0x4118e99eebe157c2 energy=0x41c0367bdb14a929 idle_energy=0x41b5e554ad510e22 \
         wasted=0x0 total_work=0x414df396da94a921 utilization=0x3fe92aaaf125a2bc \
         sprint_secs=0x0 evictions=0x0 c1.completed=0xc1 \
         c1.resp_mean=0x406709ff1212de7a c1.resp_p95=0x40708b305966b799 c1.exec_mean=0x405fc9be8146e75c \
         c1.queue_mean=0x404c947f45bdab31 c1.evictions=0x0 c0.completed=0x70f \
         c0.resp_mean=0x40790ed6ce065464 c0.resp_p95=0x408e8d47d5f0d048 c0.exec_mean=0x40627d967b5491d4 \
         c0.queue_mean=0x406fa01720b816e6 c0.evictions=0x0",
    ),
    (
        "DA(0,20)",
        "horizon=0x4118e99eebe157c2 energy=0x41bea55979d444e6 idle_energy=0x41b5e554ad510e22 \
         wasted=0x0 total_work=0x4148e39bdf531748 utilization=0x3fe62e2730ee50f8 \
         sprint_secs=0x0 evictions=0x0 c1.completed=0xc1 \
         c1.resp_mean=0x4065e2774b5420f9 c1.resp_p95=0x406f28ae888a0f33 c1.exec_mean=0x405fc9be8146e75c \
         c1.queue_mean=0x4047f6602ac2b52e c1.evictions=0x0 c0.completed=0x70f \
         c0.resp_mean=0x407039faca199974 c0.resp_p95=0x40824f84f03216cb c0.exec_mean=0x40601758efb9447a \
         c0.queue_mean=0x40605c9ca479ee70 c0.evictions=0x0",
    ),
    (
        "DiAS(0,20)",
        "horizon=0x4118e90aa9664fd8 energy=0x41be980db91859cc idle_energy=0x41b5e4d25ee2ec2d \
         wasted=0x0 total_work=0x4148e39bdf531748 utilization=0x3fe594fb2b6f788f \
         sprint_secs=0x40b3f08b343f5237 evictions=0x0 c1.completed=0xc1 \
         c1.resp_mean=0x4060f35b4a7c336a c1.resp_p95=0x406a4aba4ad4accc c1.exec_mean=0x4056f170abbc4e30 \
         c1.queue_mean=0x4045ea8bd2783149 c1.evictions=0x0 c0.completed=0x70f \
         c0.resp_mean=0x406e57c986d625d6 c0.resp_p95=0x4080bc108c746771 c0.exec_mean=0x40601758efb9447a \
         c0.queue_mean=0x405c80e12e39c2b8 c0.evictions=0x0",
    ),
    (
        "NPS",
        "horizon=0x4118e90aa9664fd8 energy=0x41c02fd9c8c79cbb idle_energy=0x41b5e4d25ee2ec2d \
         wasted=0x0 total_work=0x414df396da94a921 utilization=0x3fe892168b399a54 \
         sprint_secs=0x40b3df2d9219bfd7 evictions=0x0 c1.completed=0xc1 \
         c1.resp_mean=0x40626a200b9b516b c1.resp_p95=0x406c6f60f7ba6d9a c1.exec_mean=0x4056fa13f868dbde \
         c1.queue_mean=0x404bb4583d9b8df3 c1.evictions=0x0 c0.completed=0x70f \
         c0.resp_mean=0x4076f7079a99c762 c0.resp_p95=0x408b3e6a9fb79ac9 c0.exec_mean=0x40627d967b5491d4 \
         c0.queue_mean=0x406b7078b9defced c0.evictions=0x0",
    ),
    (
        "NPS",
        "horizon=0x4118e86ea9664fd8 energy=0x41c01f2ca3bb2cfe idle_energy=0x41b5e44942e2ec2d \
         wasted=0x0 total_work=0x414df396da94a921 utilization=0x3fe7e019dbeca24b \
         sprint_secs=0x40c585190bd4f3a8 evictions=0x0 c1.completed=0xc1 \
         c1.resp_mean=0x405ac04e2ba36bab c1.resp_p95=0x4067f53f545e33fe c1.exec_mean=0x40496e32010586ec \
         c1.queue_mean=0x404c126a5641506a c1.evictions=0x0 c0.completed=0x70f \
         c0.resp_mean=0x4074ec0547b7c3ec c0.resp_p95=0x40877cf2d1c8ff98 c0.exec_mean=0x40627d967b5491d4 \
         c0.queue_mean=0x40675a74141af5f3 c0.evictions=0x0",
    ),
];

const THREE_PRIORITY: &[(&str, &str)] = &[
    (
        "P",
        "horizon=0x40ec3587b10643b0 energy=0x41926731fc73377f idle_energy=0x4188cb0c4296817e \
         wasted=0x40f5affcb21a9afc total_work=0x412115d2145aebba utilization=0x3feb18c72cc95597 \
         sprint_secs=0x0 evictions=0x27a c2.completed=0xd7 \
         c2.resp_mean=0x40279dfab9347da8 c2.resp_p95=0x402d18ca08e0b998 c2.exec_mean=0x402722bf65314cf3 \
         c2.queue_mean=0x3fceced500cc2d3f c2.evictions=0x0 c1.completed=0x31d \
         c1.resp_mean=0x4038915a9a7b4249 c1.resp_p95=0x4049295c575b7cc4 c1.exec_mean=0x403273b13077ec7a \
         c1.queue_mean=0x401876a5a80d573a c1.evictions=0x3a c0.completed=0x3dc \
         c0.resp_mean=0x40656bab80ffbe37 c0.resp_p95=0x407d770099945871 c0.exec_mean=0x4035b8381b0a4d66 \
         c0.queue_mean=0x4062b4a47d9e748d c0.evictions=0x1fc",
    ),
    (
        "DA(0,10,20)",
        "horizon=0x40ec32a8156e432f energy=0x4190b598efd615a4 idle_energy=0x4188c885bad5e90c \
         wasted=0x0 total_work=0x411890228ae9fa6f utilization=0x3fe5adc1655c2775 \
         sprint_secs=0x0 evictions=0x0 c2.completed=0xd7 \
         c2.resp_mean=0x4032d0b8317dad9b c2.resp_p95=0x403d986afed51c64 c2.exec_mean=0x402722bf65314cf3 \
         c2.queue_mean=0x401cfd61fb941c85 c2.evictions=0x0 c1.completed=0x31d \
         c1.resp_mean=0x4039f8d3e5d1678b c1.resp_p95=0x4045d842207c3532 c1.exec_mean=0x4031692eb83d2a40 \
         c1.queue_mean=0x40211f4a5b287a96 c1.evictions=0x0 c0.completed=0x3dc \
         c0.resp_mean=0x404880a6ca3136a2 c0.resp_p95=0x40609315ad5f3238 c0.exec_mean=0x4033707cdecb7285 \
         c0.queue_mean=0x403d90d0b596fabf c0.evictions=0x0",
    ),
    (
        "DiAS(0,10,20)",
        "horizon=0x40ec32a8156e432f energy=0x4190b598efd615a4 idle_energy=0x4188c885bad5e90c \
         wasted=0x0 total_work=0x411890228ae9fa6f utilization=0x3fe5adc1655c2775 \
         sprint_secs=0x0 evictions=0x0 c2.completed=0xd7 \
         c2.resp_mean=0x4032d0b8317dad9b c2.resp_p95=0x403d986afed51c64 c2.exec_mean=0x402722bf65314cf3 \
         c2.queue_mean=0x401cfd61fb941c85 c2.evictions=0x0 c1.completed=0x31d \
         c1.resp_mean=0x4039f8d3e5d1678b c1.resp_p95=0x4045d842207c3532 c1.exec_mean=0x4031692eb83d2a40 \
         c1.queue_mean=0x40211f4a5b287a96 c1.evictions=0x0 c0.completed=0x3dc \
         c0.resp_mean=0x404880a6ca3136a2 c0.resp_p95=0x40609315ad5f3238 c0.exec_mean=0x4033707cdecb7285 \
         c0.queue_mean=0x403d90d0b596fabf c0.evictions=0x0",
    ),
];

#[test]
fn two_priority_reports_are_pinned() {
    check(
        &reference_two_priority(0.8, 7),
        two_priority_policies(),
        TWO_PRIORITY,
    );
}

#[test]
fn three_priority_reports_are_pinned() {
    check(
        &three_priority_stream(7),
        three_priority_policies(),
        THREE_PRIORITY,
    );
}
