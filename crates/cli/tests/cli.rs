//! End-to-end tests of the `edgenn` binary.

use std::process::Command;

fn edgenn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_edgenn"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn models_lists_all_six_benchmarks() {
    let out = edgenn(&["models"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["FCNN", "LeNet", "AlexNet", "VGG", "SqueezeNet", "ResNet"] {
        assert!(text.contains(name), "missing {name}:\n{text}");
    }
    assert!(
        text.contains("fork-join"),
        "SqueezeNet/ResNet structure shown"
    );
}

#[test]
fn platforms_lists_integrated_and_discrete() {
    let out = edgenn(&["platforms"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Jetson AGX Xavier"));
    assert!(text.contains("integrated"));
    assert!(text.contains("discrete"));
    assert!(text.contains("cpu-only"));
}

#[test]
fn simulate_json_is_machine_readable() {
    let out = edgenn(&[
        "simulate",
        "--model",
        "lenet",
        "--platform",
        "jetson",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(report["total_us"].as_f64().unwrap() > 0.0);
    assert_eq!(report["model"], "LeNet");
    assert_eq!(report["platform"], "Jetson AGX Xavier");
}

#[test]
fn simulate_human_output_has_breakdown_and_layers() {
    let out = edgenn(&[
        "simulate",
        "--model",
        "alexnet",
        "--platform",
        "jetson",
        "--layers",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("latency"));
    assert!(text.contains("breakdown"));
    assert!(text.contains("conv1"));
    assert!(text.contains("fc8"));
}

#[test]
fn plan_dump_parses_and_validates() {
    let out = edgenn(&["plan", "--model", "squeezenet", "--platform", "jetson"]);
    assert!(out.status.success());
    let plan: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // The plan covers the *compiled* graph: raw SqueezeNet has 67 nodes,
    // and the compiler (fusion + identity elimination + slice
    // cancellation) must remove a substantial fraction of them.
    let nodes = plan["nodes"].as_array().unwrap().len();
    assert!(
        (30..60).contains(&nodes),
        "compiled SqueezeNet should plan 30..60 nodes, got {nodes}"
    );
}

#[test]
fn trace_flag_writes_a_chrome_trace() {
    let path = std::env::temp_dir().join("edgenn_cli_test_trace.json");
    let _ = std::fs::remove_file(&path);
    let out = edgenn(&[
        "simulate",
        "--model",
        "lenet",
        "--platform",
        "jetson",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(!trace.as_array().unwrap().is_empty());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compare_reports_all_configs() {
    let out = edgenn(&["compare", "--model", "fcnn", "--platform", "jetson"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for config in [
        "baseline",
        "memory-only",
        "hybrid-only",
        "edgenn",
        "cpu-only",
    ] {
        assert!(text.contains(config), "missing {config}:\n{text}");
    }
}

#[test]
fn cpu_only_platform_skips_gpu_configs() {
    let path = std::env::temp_dir().join("edgenn_cli_test_compare_metrics.json");
    let out = edgenn(&[
        "compare",
        "--model",
        "lenet",
        "--platform",
        "rpi",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("cpu-only"));
    assert!(
        !text.contains("edgenn (energy-aware)"),
        "no GPU configs on the RPi"
    );
    // compare runs every preset, so its metrics carry no single policy.
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let counters = metrics["counters"].as_array().unwrap();
    assert!(!counters.is_empty());
    assert!(counters.iter().all(|m| m["labels"]["policy"] == "all"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_inputs_fail_with_useful_messages() {
    let cases: &[(&[&str], &str)] = &[
        (&["simulate", "--platform", "jetson"], "--model is required"),
        (
            &["simulate", "--model", "bert", "--platform", "jetson"],
            "unknown model",
        ),
        (
            &["simulate", "--model", "lenet", "--platform", "ps5"],
            "unknown platform",
        ),
        (
            &[
                "simulate",
                "--model",
                "lenet",
                "--platform",
                "jetson",
                "--config",
                "x",
            ],
            "unknown config",
        ),
        (&["frobnicate"], "unknown command"),
        (&[], "USAGE"),
        (&["siege", "--seed"], "--seed requires a value"),
        (
            &[
                "simulate",
                "--model",
                "fcnn",
                "--platform",
                "jetson",
                "--json",
                "extra",
            ],
            "unexpected argument 'extra'",
        ),
    ];
    for (args, needle) in cases {
        let out = edgenn(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(
            text.contains(needle),
            "{args:?}: expected '{needle}' in:\n{text}"
        );
    }
    // A switch never takes the next token as its value.
    let out = edgenn(&[
        "profile",
        "--json",
        "squeezenet",
        "--platform",
        "apu",
        "--runs",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(profile["model"], "SqueezeNet");
}

#[test]
fn siege_gates_clean_and_archives_checked_json() {
    let path = std::env::temp_dir().join("edgenn_cli_test_siege.json");
    let _ = std::fs::remove_file(&path);
    let out = edgenn(&[
        "siege",
        "--seed",
        "42",
        "--duration-us",
        "20000",
        "--out",
        path.to_str().unwrap(),
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["seed"].as_f64(), Some(42.0));
    assert!((report["survival"].as_f64().unwrap() - 1.0).abs() < 1e-12);
    assert_eq!(report["lost"].as_f64(), Some(0.0));
    assert_eq!(report["checker"]["clean"].as_bool(), Some(true));
    assert!(
        !report["events"].as_array().unwrap().is_empty(),
        "the full admission log rides on the archived report"
    );
    let archived: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(archived["survival"], report["survival"]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn serve_runs_realtime_and_check_replays_the_log() {
    let out = edgenn(&[
        "serve",
        "--seed",
        "42",
        "--duration-ms",
        "250",
        "--check",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!((report["survival"].as_f64().unwrap() - 1.0).abs() < 1e-12);
    assert_eq!(report["checker"]["clean"].as_bool(), Some(true));
}

#[test]
fn every_command_rejects_unknown_flags_missing_values_and_stray_arguments() {
    // (command, a flag its error must list, a value flag, a stray-argument line)
    let commands: &[(&str, &str, Option<&str>, &[&str])] = &[
        ("simulate", "--layers", Some("--model"), &["x"]),
        ("explain", "--json", Some("--platform"), &["x"]),
        ("plan", "--explain", Some("--config"), &["x"]),
        ("compare", "--metrics-out", Some("--trace-out"), &["x"]),
        ("check", "--lenient", Some("--scale"), &["x"]),
        ("compile", "--dump", Some("--out"), &["x"]),
        ("analyze", "--functional", Some("--precision"), &["x"]),
        ("profile", "--perfetto", Some("--runs"), &["lenet", "x"]),
        ("storm", "--replay-seed", Some("--seed"), &["x"]),
        ("serve", "--duration-ms", Some("--queue-capacity"), &["x"]),
        ("siege", "--no-faults", Some("--duration-us"), &["x"]),
        ("inspect", "--scale", Some("--model"), &["x"]),
        ("models", "takes no flags", None, &["x"]),
        ("platforms", "takes no flags", None, &["x"]),
    ];
    let fails = |args: &[&str], needle: &str| {
        let out = edgenn(args);
        assert!(!out.status.success(), "{args:?} was accepted");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(
            text.contains(needle),
            "{args:?}: expected '{needle}' in {text}"
        );
        text
    };
    for &(command, listed, value_flag, stray) in commands {
        let text = fails(
            &[command, "--frobnicate", "7"],
            "unknown flag '--frobnicate'",
        );
        assert!(text.contains(listed), "{command} lists its flags: {text}");
        if let Some(flag) = value_flag {
            fails(&[command, flag], &format!("{flag} requires a value"));
        }
        let mut args = vec![command];
        args.extend_from_slice(stray);
        fails(&args, "unexpected argument 'x'");
    }
    // compare runs every preset, so it takes no --config to pick one.
    fails(&["compare", "--config", "bogus"], "unknown flag '--config'");
}

#[test]
fn storm_surfaces_the_seed_of_a_forced_failure_and_replays_it() {
    // The forced failure exercises the seed-archiving path end to end:
    // round 1 of base seed 7 is seed 8, which must land in
    // failed_seeds and in the non-zero-exit failure message.
    let out = edgenn(&[
        "storm",
        "--model",
        "fcnn",
        "--platform",
        "apu",
        "--seed",
        "7",
        "--runs",
        "3",
        "--inject-failure",
        "1",
        "--json",
    ]);
    assert!(!out.status.success(), "a forced failure fails the gate");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("seed 8"),
        "failure names its seed: {stderr}"
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let seeds = report["models"][0]["failed_seeds"].as_array().unwrap();
    assert_eq!(seeds.len(), 1);
    assert_eq!(seeds[0].as_f64(), Some(8.0));

    // The archived seed replays verbosely (and, not being a real
    // failure, survives).
    let out = edgenn(&[
        "storm",
        "--model",
        "fcnn",
        "--platform",
        "apu",
        "--seed",
        "7",
        "--replay-seed",
        "8",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("storm replay: seed 8"), "{text}");
    assert!(text.contains("fault(s)"), "recovery detail printed: {text}");
}

#[test]
fn inspect_prints_per_layer_table() {
    let out = edgenn(&["inspect", "--model", "vgg"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("conv1_1"));
    assert!(text.contains("fc8"));
    assert!(text.contains("pure chain"));
    let out = edgenn(&["inspect", "--model", "resnet"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("fork-join"));
}

#[test]
fn tiny_scale_simulates_quickly() {
    let out = edgenn(&[
        "simulate",
        "--model",
        "resnet",
        "--platform",
        "apple",
        "--scale",
        "tiny",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Apple Silicon"));
}

#[test]
fn profile_emits_a_checked_merged_perfetto_trace() {
    let path = std::env::temp_dir().join("edgenn_cli_test_profile.json");
    let _ = std::fs::remove_file(&path);
    let out = edgenn(&[
        "profile",
        "squeezenet",
        "--platform",
        "apu",
        "--runs",
        "2",
        "--perfetto",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("flight check : clean"), "{text}");
    assert!(text.contains("compute"), "stage table present:\n{text}");
    assert!(text.contains("predicted us"), "per-node table present");
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let entries = trace.as_array().unwrap();
    let simulated = entries
        .iter()
        .filter(|e| e["pid"] == 1.0 && e["ph"] == "X")
        .count();
    let measured = entries
        .iter()
        .filter(|e| e["pid"] == 3.0 && e["ph"] == "X")
        .count();
    assert!(simulated > 0, "simulated timeline rides on pid 1");
    assert!(measured > 0, "measured flight recording rides on pid 3");
    assert!(
        entries
            .iter()
            .any(|e| e["ph"] == "M" && e["args"]["name"] == "measured (flight recorder)"),
        "process rows are labelled"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn profile_json_carries_stages_and_per_node_attribution() {
    let out = edgenn(&[
        "profile",
        "lenet",
        "--platform",
        "jetson",
        "--runs",
        "1",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(profile["flight_check"], "clean");
    assert!(profile["wall_us"].as_f64().unwrap() > 0.0);
    let stages = profile["profile"]["stages"].as_array().unwrap();
    assert!(stages.iter().any(|s| s["stage"] == "request"));
    assert!(stages.iter().any(|s| s["stage"] == "node"));
    let nodes = profile["nodes"].as_array().unwrap();
    assert!(!nodes.is_empty());
    assert!(
        nodes
            .iter()
            .any(|n| n["predicted_us"].as_f64().unwrap_or(0.0) > 0.0),
        "nodes carry the analytic prediction next to the measurement"
    );
}
