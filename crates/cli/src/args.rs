//! The `edgenn` command line as data. Every flag is declared once in
//! [`FLAGS`] (name, arity, default, help line) and every subcommand's
//! row in [`COMMANDS`] lists the flags it accepts. Parsing, arity checks,
//! unknown-flag and stray-argument rejection, defaults and the usage
//! synopsis all derive from these two tables.

use std::fmt::Write as _;
use std::str::FromStr;

use edgenn_core::plan::{ExecutionConfig, Precision};
use edgenn_nn::models::ModelKind;
use edgenn_sim::{platforms, Platform};

/// One command-line flag.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    /// A second spelling of the same flag.
    alias: Option<&'static str>,
    /// Placeholder for the value the flag takes; `None` for a switch.
    metavar: Option<&'static str>,
    /// Value used when the flag is absent (a command row may override it).
    default: Option<&'static str>,
    help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        alias: None,
        metavar: None,
        default: None,
        help,
    }
}

const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag {
        metavar: Some(metavar),
        ..switch(name, help)
    }
}

impl Flag {
    const fn or(self, default: &'static str) -> Self {
        Self {
            default: Some(default),
            ..self
        }
    }

    /// `--name METAVAR`, or `--name` for a switch.
    fn spelled(&self) -> String {
        match self.metavar {
            Some(m) => format!("--{} {m}", self.name),
            None => format!("--{}", self.name),
        }
    }
}

/// Every flag of every subcommand, in the order the usage lists them.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    value("model", "M", "fcnn lenet alexnet vgg squeezenet resnet"),
    value("platform", "P", "jetson (jetson-xavier) rpi phone server apu apple"),
    value("config", "C", "edgenn baseline cpu-only memory-only hybrid-only inter-only energy")
        .or("edgenn"),
    value("precision", "f32|int8", "numeric precision of the kernels").or("f32"),
    value("scale", "paper|tiny", "model size (tiny runs for real)").or("paper"),
    switch("no-compile", "plan over the raw builder graph"),
    switch("prepack", "pack weights into kernel layouts (default at tiny)"),
    switch("no-prepack", "leave weights unpacked"),
    switch("json", "machine-readable report instead of the tables"),
    value("out", "FILE", "also write the JSON report to FILE"),
    switch("layers", "add the per-layer timing table"),
    switch("explain", "per-layer decision table instead of the plan JSON"),
    switch("dump", "also print the compiled graph's layer table"),
    switch("lenient", "downgrade accounting codes EC030/EC031 to warnings"),
    switch("functional", "also gate the real engine's measured memory"),
    Flag { alias: Some("trace"), ..value("trace-out", "FILE", "Perfetto trace with counter tracks") },
    value("metrics-out", "FILE", "JSON metrics snapshot with latency histograms"),
    value("perfetto", "FILE", "simulated (pid 1) and measured (pid 3) timelines"),
    value("faults", "SPEC|SEED", "inject faults (see FAULTS)"),
    value("max-retries", "N", "per-node retry budget before CPU fallback"),
    value("deadline-us", "F", "latency budget; overruns degrade the plan mid-run"),
    value("runs", "N", "rounds per model / measured requests"),
    value("seed", "N", "base seed of fault plans and load").or("42"),
    value("replay-seed", "N", "re-run one storm round with seed N, verbosely"),
    value("inject-failure", "I", "force storm round I to fail"),
    value("duration-ms", "N", "wall-clock length of the serve run").or("1000"),
    value("duration-us", "F", "virtual-time length of the siege run"),
    value("queue-capacity", "N", "bound of the ingress queue"),
    value("max-batch", "N", "largest batch the batcher forms"),
    value("max-delay-us", "F", "longest a request waits for its batch"),
    switch("check", "replay the admission log through EC07x"),
    switch("no-faults", "run the siege without fault injection"),
];

/// The flag named `name`; the tables only name declared flags.
fn flag(name: &str) -> &'static Flag {
    FLAGS
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("--{name} is not in the flag table"))
}

type Run = fn(&Args) -> crate::Result<()>;
type Names = &'static [&'static str];

/// One subcommand: the flags it accepts and the function that runs it.
struct Command {
    name: &'static str,
    run: Run,
    /// Accepted flags, in synopsis order.
    flags: &'static [Names],
    /// Flags that must be given.
    required: Names,
    /// Where this command's default differs from the flag's own.
    defaults: &'static [(&'static str, &'static str)],
    /// The flag a bare positional argument stands for (`profile <model>`).
    positional: Option<&'static str>,
}

/// A row that requires `--model` and `--platform`, the common case.
const fn command(name: &'static str, run: Run, flags: &'static [Names]) -> Command {
    Command {
        name,
        run,
        flags,
        required: &["model", "platform"],
        defaults: &[],
        positional: None,
    }
}

/// The flags of a model load (see `load_model` in main.rs).
#[rustfmt::skip]
const MODEL: Names = &["model", "scale", "precision", "no-compile", "prepack", "no-prepack"];
const TARGET: Names = &["platform", "config"];
const OBS: Names = &["trace-out", "metrics-out"];
const RETRY: Names = &["max-retries", "deadline-us"];
#[rustfmt::skip]
const SERVING: Names = &["seed", "platform", "queue-capacity", "max-batch", "max-delay-us", "json", "out"];

/// Every subcommand, in the order the usage lists them.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    command("simulate", crate::cmd_simulate,
        &[TARGET, MODEL, &["json", "layers"], OBS, &["faults"], RETRY]),
    command("explain", crate::cmd_explain, &[TARGET, MODEL, &["json"]]),
    command("plan", crate::cmd_plan, &[TARGET, MODEL, &["explain"]]),
    command("compare", crate::cmd_compare, &[&["platform"], MODEL, OBS]),
    command("check", crate::cmd_check, &[TARGET, MODEL, &["json", "lenient"]]),
    Command { required: &["model"], ..command("compile", crate::cmd_compile,
        &[&["model"], TARGET, &["scale", "precision", "prepack", "no-prepack", "json", "dump", "out"]]) },
    command("analyze", crate::cmd_analyze, &[TARGET, MODEL, &["json", "functional"]]),
    Command {
        defaults: &[("scale", "tiny"), ("runs", "3")],
        positional: Some("model"),
        ..command("profile", crate::cmd_profile, &[TARGET, MODEL, &["runs", "json", "perfetto"]])
    },
    Command {
        required: &[],
        defaults: &[("model", "all"), ("platform", "jetson"), ("runs", "100")],
        ..command("storm", crate::cmd_storm, &[&["model"], TARGET,
            &["precision", "seed", "runs"], RETRY, &["replay-seed", "inject-failure", "json", "out"]])
    },
    Command { required: &[], ..command("serve", crate::cmd_serve, &[&["duration-ms", "check"], SERVING]) },
    Command { required: &[],
        ..command("siege", crate::cmd_siege, &[&["duration-us", "no-faults", "max-retries"], SERVING]) },
    Command { required: &["model"], ..command("inspect", crate::cmd_inspect, &[MODEL]) },
    Command { required: &[], ..command("models", |_| crate::cmd_models(), &[]) },
    Command { required: &[], ..command("platforms", |_| { crate::cmd_platforms(); Ok(()) }, &[]) },
];

impl Command {
    fn accepted(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        self.flags.iter().copied().flatten().map(|name| flag(name))
    }

    /// The accepted flag spelled `key` (its name or its alias).
    fn lookup(&self, key: &str) -> Option<&'static Flag> {
        self.accepted()
            .find(|f| f.name == key || f.alias == Some(key))
    }

    fn default(&self, name: &str) -> Option<&'static str> {
        let row = self.defaults.iter().find(|(n, _)| *n == name);
        row.map(|(_, d)| *d).or(flag(name).default)
    }

    /// `edgenn <name> <synopsis>`, wrapped at 78 columns under the name.
    fn synopsis(&self) -> String {
        let positional = self.positional.map(|p| format!("<{p}>"));
        let required = self
            .required
            .iter()
            .filter(|n| Some(**n) != self.positional);
        let optional = self.accepted().filter(|f| !self.required.contains(&f.name));
        let words = positional
            .into_iter()
            .chain(required.map(|n| flag(n).spelled()))
            .chain(optional.map(|f| format!("[{}]", f.spelled())));
        let mut out = format!("    edgenn {:<9}", self.name);
        let mut width = out.len();
        for word in words {
            if width + 1 + word.len() > 78 {
                out.push_str(&format!("\n{:20}", ""));
                width = 20;
            }
            out.push(' ');
            out.push_str(&word);
            width += 1 + word.len();
        }
        out.trim_end().to_string()
    }
}

/// The usage text: one synopsis per command, one help line per flag
/// (with its defaults), then the prose `notes`.
pub fn usage(notes: &str) -> String {
    let mut out = String::from("edgenn — EdgeNN (ICDE 2023) reproduction CLI\n\nUSAGE:\n");
    for c in COMMANDS {
        let _ = writeln!(out, "{}", c.synopsis());
    }
    out.push_str("\nFLAGS:\n");
    for f in FLAGS {
        let overrides = COMMANDS.iter().filter_map(|c| {
            let row = c.defaults.iter().find(|(n, _)| *n == f.name);
            row.map(|(_, d)| format!("{}: {d}", c.name))
        });
        let default = f.default.map(|d| format!("default {d}"));
        let alias = f.alias.map(|a| format!("alias --{a}"));
        let extras: Vec<String> = default.into_iter().chain(overrides).chain(alias).collect();
        let _ = writeln!(out, "    {:<26}{}", f.spelled(), f.help);
        if !extras.is_empty() {
            let _ = writeln!(out, "{:30}[{}]", "", extras.join("; "));
        }
    }
    out.push('\n');
    out.push_str(notes);
    out
}

/// A parsed command line: the command's row and the flags given, by
/// their table names, in order (the last occurrence wins).
pub struct Args {
    command: &'static Command,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `<command> [args…]` against the tables. An unknown command
    /// or flag, a value flag without its value, a stray positional or a
    /// missing required flag is an error; a switch never takes the next
    /// token as its value.
    pub fn parse(mut argv: impl Iterator<Item = String>, notes: &str) -> Result<Self, String> {
        let name = argv.next().ok_or_else(|| usage(notes))?;
        let command = match COMMANDS.iter().find(|c| c.name == name) {
            Some(c) => c,
            None if name.starts_with("--") => return Err(usage(notes)),
            None => return Err(format!("unknown command '{name}'\n\n{}", usage(notes))),
        };
        let mut given = Vec::new();
        let mut positional = command.positional;
        while let Some(arg) = argv.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let Some(f) = command.lookup(key) else {
                    let accepted: Vec<String> = command
                        .accepted()
                        .map(|f| format!("--{}", f.name))
                        .collect();
                    return Err(if accepted.is_empty() {
                        format!("unknown flag '--{key}' ({name} takes no flags)")
                    } else {
                        let accepted = accepted.join(" ");
                        format!("unknown flag '--{key}' for {name} (expected one of: {accepted})")
                    });
                };
                let value = match f.metavar {
                    None => None,
                    Some(metavar) => match argv.next() {
                        Some(v) if !v.starts_with("--") => Some(v),
                        _ => return Err(format!("--{key} requires a value ({metavar})")),
                    },
                };
                given.push((f.name, value));
            } else if let Some(slot) = positional.take() {
                given.push((slot, Some(arg)));
            } else {
                return Err(format!("unexpected argument '{arg}' for {name}"));
            }
        }
        let args = Self { command, given };
        match command.required.iter().find(|n| !args.has(n)) {
            Some(missing) => Err(format!("--{missing} is required")),
            None => Ok(args),
        }
    }

    /// Runs the parsed command.
    pub fn run(&self) -> crate::Result<()> {
        (self.command.run)(self)
    }

    /// Reading a flag outside the command's row is a bug, not a user error.
    fn check(&self, name: &str) {
        let declared = self.command.accepted().any(|f| f.name == name);
        assert!(declared, "--{name} is not in the {} row", self.command.name);
    }

    /// True when `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.check(name);
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value of `--name`: the last one given, else its default.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.check(name);
        let given = self.given.iter().rev().find(|(n, _)| *n == name);
        let given = given.and_then(|(_, v)| v.as_deref());
        given.or_else(|| self.command.default(name))
    }

    /// [`Args::value`] for a flag that must have one.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.value(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// [`Args::require`], parsed as a `T`.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let value = self.require(name)?;
        value.parse().map_err(|e| format!("--{name}: {e}"))
    }
}

/// Resolves a `--model` name.
pub fn parse_model(name: &str) -> Result<ModelKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "fcnn" => Ok(ModelKind::Fcnn),
        "lenet" => Ok(ModelKind::LeNet),
        "alexnet" => Ok(ModelKind::AlexNet),
        "vgg" | "vgg16" | "vgg-16" => Ok(ModelKind::Vgg16),
        "squeezenet" => Ok(ModelKind::SqueezeNet),
        "resnet" | "resnet18" | "resnet-18" => Ok(ModelKind::ResNet18),
        other => Err(format!(
            "unknown model '{other}' (expected fcnn|lenet|alexnet|vgg|squeezenet|resnet)"
        )),
    }
}

/// Resolves a `--platform` name.
pub fn parse_platform(name: &str) -> Result<Platform, String> {
    match name.to_ascii_lowercase().as_str() {
        "jetson" | "xavier" | "jetson-xavier" | "jetson-agx-xavier" | "agx-xavier" => {
            Ok(platforms::jetson_agx_xavier())
        }
        "rpi" | "raspberry-pi" | "raspberrypi" => Ok(platforms::raspberry_pi_4()),
        "phone" | "dimensity" | "dimensity-8100" => Ok(platforms::dimensity_8100()),
        "server" | "2080ti" | "rtx-2080ti" => Ok(platforms::rtx_2080ti_server()),
        "apu" | "amd" | "amd-apu" => Ok(platforms::amd_embedded_apu()),
        "apple" | "m1" | "apple-m1" => Ok(platforms::apple_silicon_m1()),
        other => Err(format!(
            "unknown platform '{other}' (expected jetson|rpi|phone|server|apu|apple)"
        )),
    }
}

/// Resolves a `--config` name.
pub fn parse_config(name: &str) -> Result<ExecutionConfig, String> {
    match name.to_ascii_lowercase().as_str() {
        "edgenn" => Ok(ExecutionConfig::edgenn()),
        "baseline" | "gpu-only" => Ok(ExecutionConfig::baseline_gpu()),
        "cpu-only" => Ok(ExecutionConfig::cpu_only()),
        "memory-only" | "zero-copy" => Ok(ExecutionConfig::memory_only()),
        "hybrid-only" => Ok(ExecutionConfig::hybrid_only()),
        "inter-only" | "inter-kernel" => Ok(ExecutionConfig::inter_kernel_only()),
        "energy" | "energy-aware" => Ok(ExecutionConfig::edgenn_energy_aware()),
        other => Err(format!(
            "unknown config '{other}' (expected edgenn|baseline|cpu-only|memory-only|\
             hybrid-only|inter-only|energy)"
        )),
    }
}

/// Resolves a `--precision` name.
pub fn parse_precision(name: &str) -> Result<Precision, String> {
    match name.to_ascii_lowercase().as_str() {
        "f32" | "fp32" | "float" => Ok(Precision::F32),
        "int8" | "i8" | "quantized" => Ok(Precision::Int8),
        other => Err(format!("unknown precision '{other}' (expected f32|int8)")),
    }
}

/// Builds the execution config from `--config` with `--precision`
/// applied on top, so every preset has an int8 variant.
pub fn resolve_config(args: &Args) -> Result<ExecutionConfig, String> {
    let mut config = parse_config(args.require("config")?)?;
    config.precision = parse_precision(args.require("precision")?)?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a whitespace-separated command line.
    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from), "NOTES")
    }

    #[test]
    fn every_row_names_declared_flags_once() {
        for c in COMMANDS {
            let names: Vec<&str> = c.accepted().map(|f| f.name).collect();
            for (i, n) in names.iter().enumerate() {
                assert!(!names[..i].contains(n), "{}: --{n} listed twice", c.name);
            }
            let named = c.required.iter().chain(c.defaults.iter().map(|(n, _)| n));
            for n in named.chain(&c.positional) {
                assert!(names.contains(n), "{}: --{n} is not accepted", c.name);
            }
        }
        for f in FLAGS {
            let used = COMMANDS.iter().any(|c| c.lookup(f.name).is_some());
            assert!(used, "--{} is accepted by no command", f.name);
        }
    }

    #[test]
    fn parses_aliases_defaults_and_overrides() {
        let a = parse("simulate --model vgg --platform apu --trace t.json").unwrap();
        assert_eq!(a.value("trace-out"), Some("t.json"), "--trace is an alias");
        assert_eq!(a.value("config"), Some("edgenn"), "the flag's default");
        assert!(!a.has("config"), "a default is not a given flag");
        assert_eq!(a.value("metrics-out"), None);
        assert_eq!(a.value("scale"), Some("paper"));
        let profile = parse("profile --json lenet --platform apu").unwrap();
        assert_eq!(profile.value("model"), Some("lenet"), "a switch takes none");
        assert_eq!(profile.value("scale"), Some("tiny"), "the row's override");
        assert_eq!(profile.get::<usize>("runs"), Ok(3));
        let storm = parse("storm --seed 1 --seed x").unwrap();
        assert_eq!(storm.value("platform"), Some("jetson"));
        assert_eq!(storm.get::<usize>("runs"), Ok(100));
        assert_eq!(storm.value("seed"), Some("x"), "the last occurrence wins");
        let err = storm.get::<u64>("seed").unwrap_err();
        assert!(err.starts_with("--seed: "), "{err}");
    }

    #[test]
    #[should_panic(expected = "--layers is not in the serve row")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let _ = parse("serve").unwrap().has("layers");
    }

    #[test]
    fn usage_is_generated_from_the_tables() {
        let text = usage("NOTES");
        for c in COMMANDS {
            let line = format!("\n    edgenn {}", c.name);
            assert!(text.contains(&line), "{}", c.name);
        }
        for f in FLAGS {
            let line = format!("\n    {} ", f.spelled());
            assert!(text.contains(&line), "--{}", f.name);
        }
        assert!(text.contains("edgenn profile   <model> --platform P [--config C]"));
        assert!(text.contains("[default paper; profile: tiny]"), "{text}");
        assert!(text.contains("[alias --trace]"));
        assert!(text.lines().all(|l| l.chars().count() <= 100), "{text}");
        assert!(text.ends_with("NOTES"));
    }

    #[test]
    fn model_names_resolve() {
        assert_eq!(parse_model("AlexNet").unwrap(), ModelKind::AlexNet);
        assert_eq!(parse_model("vgg-16").unwrap(), ModelKind::Vgg16);
        assert_eq!(parse_model("resnet18").unwrap(), ModelKind::ResNet18);
        assert!(parse_model("bert").is_err());
    }

    #[test]
    fn platform_names_resolve() {
        assert!(parse_platform("jetson").unwrap().is_integrated());
        assert_eq!(
            parse_platform("jetson-xavier").unwrap().name,
            parse_platform("jetson").unwrap().name
        );
        assert!(!parse_platform("rpi").unwrap().has_gpu());
        assert!(parse_platform("apple").unwrap().is_integrated());
        assert!(parse_platform("gameboy").is_err());
    }

    #[test]
    fn precision_flag_overlays_any_config() {
        assert_eq!(parse_precision("INT8").unwrap(), Precision::Int8);
        assert_eq!(parse_precision("fp32").unwrap(), Precision::F32);
        assert!(parse_precision("fp16").is_err());
        let check = "check --model lenet --platform rpi --config cpu-only";
        let int8 = parse(&format!("{check} --precision int8")).unwrap();
        assert_eq!(resolve_config(&int8).unwrap().precision, Precision::Int8);
        let f32 = resolve_config(&parse(check).unwrap()).unwrap();
        assert_eq!(f32.precision, Precision::F32, "precision defaults to f32");
    }

    #[test]
    fn config_names_resolve() {
        use edgenn_core::plan::{HybridMode, TuneObjective};
        let hybrid = |name| parse_config(name).unwrap().hybrid;
        assert_eq!(hybrid("edgenn"), HybridMode::InterAndIntra);
        assert_eq!(hybrid("baseline"), HybridMode::GpuOnly);
        let energy = parse_config("energy").unwrap();
        assert_eq!(energy.objective, TuneObjective::Energy);
        assert!(parse_config("warp-speed").is_err());
    }

    /// The `--flag`s a doc cites after a command, as `(command, flag,
    /// line)`. A citation starts at `edgenn <cmd>`, `edgenn-cli -- <cmd>`
    /// or `$E <cmd>` and ends at a backtick, the next citation, or the end
    /// of its line (following `\` continuations).
    fn citations(text: &str) -> Vec<(&'static str, String, usize)> {
        let mut found = Vec::new();
        let lines: Vec<&str> = text.lines().collect();
        for (at, line) in lines.iter().enumerate() {
            for prefix in ["edgenn ", "edgenn-cli -- ", "$E "] {
                for (i, _) in line.match_indices(prefix) {
                    let rest = &line[i + prefix.len()..];
                    let word = rest.split(|c: char| !c.is_ascii_alphanumeric()).next();
                    let Some(c) = COMMANDS.iter().find(|c| Some(c.name) == word) else {
                        continue;
                    };
                    let mut span = rest[c.name.len()..].to_string();
                    let mut next = at + 1;
                    while span.trim_end().ends_with('\\') && next < lines.len() {
                        span.push_str(lines[next]);
                        next += 1;
                    }
                    let end = ["`", "edgenn ", "$E "]
                        .iter()
                        .filter_map(|p| span.find(p))
                        .min();
                    let span = &span[..end.unwrap_or(span.len())];
                    for (j, _) in span.match_indices("--") {
                        let name = span[j + 2..]
                            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                            .next()
                            .unwrap_or_default();
                        if span[..j].ends_with([' ', '[', '|']) && !name.is_empty() {
                            found.push((c.name, name.to_string(), at + 1));
                        }
                    }
                }
            }
        }
        found
    }

    #[test]
    fn citation_scan_follows_continuations_and_stops_at_code_spans() {
        let text = "run `edgenn compile --model M [--json|--dump]` then `edgenn serve`\n\
                    $E storm --seed 1 \\\n    --runs 2 # see `edgenn siege --no-faults`\n";
        let found: Vec<String> = citations(text)
            .into_iter()
            .map(|(c, f, line)| format!("{line}:{c} --{f}"))
            .collect();
        let want = [
            "1:compile --model",
            "1:compile --json",
            "1:compile --dump",
            "2:storm --seed",
            "2:storm --runs",
            "3:siege --no-faults",
        ];
        assert_eq!(found, want);
    }

    #[test]
    fn docs_cite_only_flags_their_command_accepts() {
        let docs = [
            ("README.md", include_str!("../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
            (
                "docs/compiler.md",
                include_str!("../../../docs/compiler.md"),
            ),
            (
                "docs/diagnostics.md",
                include_str!("../../../docs/diagnostics.md"),
            ),
            ("docs/perf.md", include_str!("../../../docs/perf.md")),
            (
                "docs/profiling.md",
                include_str!("../../../docs/profiling.md"),
            ),
            (
                "docs/resilience.md",
                include_str!("../../../docs/resilience.md"),
            ),
            ("docs/serving.md", include_str!("../../../docs/serving.md")),
            (
                "SKILL.md",
                include_str!("../../../.claude/skills/verify/SKILL.md"),
            ),
        ];
        let mut cited = 0;
        for (file, text) in docs {
            for (command, name, line) in citations(text) {
                let row = COMMANDS.iter().find(|c| c.name == command).unwrap();
                assert!(
                    row.lookup(&name).is_some(),
                    "{file}:{line}: `edgenn {command}` cites --{name}, which it does not accept"
                );
                cited += 1;
            }
        }
        assert!(cited >= 100, "the scan lost the docs' citations ({cited})");
    }
}
