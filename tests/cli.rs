//! Integration tests for the `seqhide` CLI (driving `seqhide::cli::run`
//! directly — the binary is a 10-line wrapper).

use std::fs;
use std::path::PathBuf;

use seqhide::cli::run;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("seqhide-cli-tests").join(name);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_db(dir: &std::path::Path, name: &str, content: &str) -> String {
    let path = dir.join(name);
    fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn help_and_unknown_command() {
    assert!(run(&[]).unwrap().contains("USAGE"));
    assert!(run(&args(&["help"])).unwrap().contains("seqhide hide"));
    let e = run(&args(&["frobnicate"])).unwrap_err();
    assert!(e.0.contains("unknown command"));
    // nothing is close to "frobnicate": no suggestion, just the pointer
    assert!(!e.0.contains("did you mean"), "{e}");
    assert!(e.0.contains("try 'seqhide help'"), "{e}");
}

#[test]
fn unknown_command_gets_suggestion() {
    // close typo
    let e = run(&args(&["hidee"])).unwrap_err();
    assert!(e.0.contains("did you mean 'hide'?"), "{e}");
    // prefix of a longer command
    let e = run(&args(&["ver"])).unwrap_err();
    assert!(e.0.contains("did you mean 'verify'?"), "{e}");
    // transposition
    let e = run(&args(&["sttas"])).unwrap_err();
    assert!(e.0.contains("did you mean 'stats'?"), "{e}");
}

#[test]
fn stats_reports_shape() {
    let dir = tmpdir("stats");
    let db = write_db(&dir, "db.seq", "a b c\nb c\n# comment\n");
    let out = run(&args(&["stats", "--db", &db])).unwrap();
    assert!(out.contains("sequences:      2"));
    assert!(out.contains("alphabet |Σ|:   3"));
    assert!(out.contains("avg length:     2.50"));
}

#[test]
fn mine_lists_frequent_patterns() {
    let dir = tmpdir("mine");
    let db = write_db(&dir, "db.seq", "a b\na b\nb a\n");
    let out = run(&args(&["mine", "--db", &db, "--sigma", "2"])).unwrap();
    assert!(out.contains("frequent patterns (σ = 2): 3"));
    assert!(out.contains("⟨a b⟩"));
    // gsp agrees
    let gsp = run(&args(&[
        "mine", "--db", &db, "--sigma", "2", "--miner", "gsp",
    ]))
    .unwrap();
    assert!(gsp.contains("frequent patterns (σ = 2): 3"));
    // top-k limits rows
    let top = run(&args(&["mine", "--db", &db, "--sigma", "2", "--top", "1"])).unwrap();
    assert_eq!(top.lines().count(), 2);
}

#[test]
fn hide_then_verify_roundtrip() {
    let dir = tmpdir("hide");
    let db = write_db(&dir, "db.seq", "a b c\nb a c\nc c a\na c\n");
    let out_path = dir.join("released.seq").to_string_lossy().into_owned();
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--out",
        &out_path,
    ]))
    .unwrap();
    assert!(out.contains("total marks (M1):"));
    assert!(out.contains("wrote"));
    // verify passes on the release
    let v = run(&args(&[
        "verify",
        "--db",
        &out_path,
        "--psi",
        "0",
        "--pattern",
        "a c",
    ]))
    .unwrap();
    assert!(v.contains("HIDDEN"));
    // and fails on the original
    let e = run(&args(&[
        "verify",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
    ]))
    .unwrap_err();
    assert!(e.0.contains("NOT HIDDEN"));
}

#[test]
fn hide_with_constraints_and_post_delete() {
    let dir = tmpdir("hidec");
    let db = write_db(&dir, "db.seq", "a x b\na b\na y y b\n");
    let out_path = dir.join("released.seq").to_string_lossy().into_owned();
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a b",
        "--max-gap",
        "1",
        "--post",
        "delete",
        "--out",
        &out_path,
        "--report",
    ]))
    .unwrap();
    assert!(out.contains("post: deleted Δ"));
    assert!(out.contains("0 residual Δ"));
    let released = fs::read_to_string(&out_path).unwrap();
    assert!(!released.contains('Δ'));
}

#[test]
fn hide_regex_patterns() {
    let dir = tmpdir("hidere");
    let db = write_db(&dir, "db.seq", "a b\na c\na b c\nx y\n");
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--regex",
        "a (b | c)",
    ]))
    .unwrap();
    assert!(out.contains("regex patterns:"));
    assert!(out.contains("residual supports [0]"));
}

#[test]
fn hide_rejects_empty_and_bad_input() {
    let dir = tmpdir("hidebad");
    let db = write_db(&dir, "db.seq", "a b\n");
    assert!(run(&args(&["hide", "--db", &db, "--psi", "0"]))
        .unwrap_err()
        .0
        .contains("nothing to hide"));
    assert!(run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "zero",
        "--pattern",
        "a"
    ]))
    .unwrap_err()
    .0
    .contains("not a number"));
    assert!(
        run(&args(&["hide", "--db", &db, "--psi", "0", "--regex", "a*"]))
            .unwrap_err()
            .0
            .contains("empty word")
    );
    assert!(run(&args(&[
        "hide",
        "--db",
        "/nonexistent",
        "--psi",
        "0",
        "--pattern",
        "a"
    ]))
    .unwrap_err()
    .0
    .contains("cannot read"));
    assert!(run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a",
        "--algorithm",
        "zz"
    ]))
    .unwrap_err()
    .0
    .contains("unknown algorithm"));
}

#[test]
fn engine_flag_selects_counting_core() {
    let dir = tmpdir("engine");
    let db = write_db(&dir, "db.seq", "a b c\nb a c\nc c a\na c\na b a b\n");
    let run_with = |engine: Option<&str>, algorithm: &str, out: &str| {
        let out_path = dir.join(out).to_string_lossy().into_owned();
        let mut a = args(&[
            "hide",
            "--db",
            &db,
            "--psi",
            "0",
            "--pattern",
            "a c",
            "--pattern",
            "a b",
            "--algorithm",
            algorithm,
            "--seed",
            "3",
            "--out",
            &out_path,
        ]);
        if let Some(e) = engine {
            a.extend(args(&["--engine", e]));
        }
        run(&a).unwrap();
        fs::read_to_string(dir.join(out)).unwrap()
    };
    for algorithm in ["hh", "rr"] {
        // the incremental engine (default) and the from-scratch escape
        // hatch release byte-identical databases
        let default = run_with(None, algorithm, "default.seq");
        let incremental = run_with(Some("incremental"), algorithm, "incremental.seq");
        let scratch = run_with(Some("scratch"), algorithm, "scratch.seq");
        assert_eq!(default, incremental, "{algorithm}");
        assert_eq!(default, scratch, "{algorithm}");
    }
    // bad value rejected
    let e = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--engine",
        "warp",
    ]))
    .unwrap_err();
    assert!(e.0.contains("unknown engine"));
}

#[test]
fn gen_produces_calibrated_dataset() {
    let dir = tmpdir("gen");
    let out_path = dir.join("synthetic.seq").to_string_lossy().into_owned();
    let out = run(&args(&[
        "gen",
        "--dataset",
        "synthetic",
        "--out",
        &out_path,
    ]))
    .unwrap();
    assert!(out.contains("300 sequences"));
    assert!(out.contains("[99, 172], disjunction 200"));
    let stats = run(&args(&["stats", "--db", &out_path])).unwrap();
    assert!(stats.contains("sequences:      300"));
}

#[test]
fn deterministic_hide_under_seed() {
    let dir = tmpdir("det");
    let db = write_db(&dir, "db.seq", "a b\na b\na b\nb a\n");
    let run_once = |seed: &str, out: &str| {
        let out_path = dir.join(out).to_string_lossy().into_owned();
        run(&args(&[
            "hide",
            "--db",
            &db,
            "--psi",
            "1",
            "--pattern",
            "a b",
            "--algorithm",
            "rr",
            "--seed",
            seed,
            "--out",
            &out_path,
        ]))
        .unwrap();
        fs::read_to_string(dir.join(out)).unwrap()
    };
    assert_eq!(run_once("7", "a.seq"), run_once("7", "b.seq"));
}

#[test]
fn itemset_mode_hide_and_stats() {
    let dir = tmpdir("itemset");
    let db = write_db(
        &dir,
        "baskets.db",
        "test,bread vitamins,milk\nbread milk\ntest vitamins\n",
    );
    let stats = run(&args(&["stats", "--db", &db, "--mode", "itemset"])).unwrap();
    assert!(stats.contains("sequences:      3"));
    assert!(stats.contains("elements total: 6"));
    let out_path = dir.join("released.db").to_string_lossy().into_owned();
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--mode",
        "itemset",
        "--psi",
        "0",
        "--pattern",
        "test vitamins",
        "--out",
        &out_path,
    ]))
    .unwrap();
    assert!(out.contains("residual supports [0]"));
    let released = fs::read_to_string(&out_path).unwrap();
    assert!(released.contains("Δ"));
    // non-sensitive items survive
    assert!(released.contains("bread"));
    // mine the released itemset db
    let mined = run(&args(&[
        "mine",
        "--db",
        &out_path,
        "--mode",
        "itemset",
        "--sigma",
        "2",
        "--max-len",
        "2",
    ]))
    .unwrap();
    assert!(mined.contains("frequent itemset patterns"));
}

#[test]
fn timed_mode_hide_respects_tick_constraints() {
    let dir = tmpdir("timed");
    let db = write_db(
        &dir,
        "events.db",
        "test@0 arv@24\ntest@0 arv@200\ntest@5 xray@40 arv@60\n",
    );
    let stats = run(&args(&["stats", "--db", &db, "--mode", "timed"])).unwrap();
    assert!(stats.contains("sequences:      3"));
    let out_path = dir.join("released.db").to_string_lossy().into_owned();
    // only occurrences within 72 ticks are sensitive: rows 1 and 3
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--mode",
        "timed",
        "--psi",
        "0",
        "--pattern",
        "test arv",
        "--max-gap",
        "72",
        "--out",
        &out_path,
    ]))
    .unwrap();
    assert!(out.contains("residual supports [0]"));
    let released = fs::read_to_string(&out_path).unwrap();
    // row 2 (200-tick interval) untouched
    assert!(released.contains("test@0 arv@200"));
    assert!(released.contains("Δ@"));
}

#[test]
fn bad_modes_are_rejected() {
    let dir = tmpdir("badmode");
    let db = write_db(&dir, "db.seq", "a b\n");
    assert!(run(&args(&["stats", "--db", &db, "--mode", "weird"]))
        .unwrap_err()
        .0
        .contains("unknown mode"));
    assert!(run(&args(&[
        "mine", "--db", &db, "--mode", "timed", "--sigma", "1"
    ]))
    .unwrap_err()
    .0
    .contains("not supported"));
}

#[test]
fn attack_command_reports_inference_and_resupport() {
    let dir = tmpdir("attack");
    let original_text = "a b c\n".repeat(10) + "x y\n";
    let original = write_db(&dir, "orig.seq", &original_text);
    // hide ⟨a c⟩ completely, keep marks
    let released_path = dir.join("rel.seq").to_string_lossy().into_owned();
    run(&args(&[
        "hide",
        "--db",
        &original,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--out",
        &released_path,
    ]))
    .unwrap();
    // public background corpus with the same structure
    let public = write_db(&dir, "public.seq", &"a b c\n".repeat(30));
    let out = run(&args(&[
        "attack",
        "--original",
        &original,
        "--released",
        &released_path,
        "--train",
        &public,
        "--pattern",
        "a c",
    ]))
    .unwrap();
    assert!(out.contains("mark-inference:"), "{out}");
    assert!(
        out.contains("pattern re-support: original 10 → release 0 →"),
        "{out}"
    );
    assert!(out.contains("WARNING"), "{out}");
    // misaligned databases error out
    let short = write_db(&dir, "short.seq", "a b\n");
    assert!(run(&args(&[
        "attack",
        "--original",
        &original,
        "--released",
        &short
    ]))
    .unwrap_err()
    .0
    .contains("do not align"));
}

#[test]
fn unknown_flags_get_suggestions() {
    let dir = tmpdir("flags");
    let db = write_db(&dir, "db.seq", "a b\n");
    // close typo → "did you mean"
    let e = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psii",
        "0",
        "--pattern",
        "a",
    ]))
    .unwrap_err();
    assert!(
        e.0.contains("unknown flag --psii for 'hide'") && e.0.contains("did you mean --psi?"),
        "{e}"
    );
    // prefix of a longer flag is still suggested
    let e = run(&args(&["mine", "--db", &db, "--sig", "1"])).unwrap_err();
    assert!(e.0.contains("did you mean --sigma?"), "{e}");
    // nothing close → list the valid flags
    let e = run(&args(&["gen", "--frobnicate", "x"])).unwrap_err();
    assert!(e.0.contains("valid flags: --dataset, --seed, --out"), "{e}");
    // flags valid elsewhere are rejected per-subcommand
    let e = run(&args(&["stats", "--db", &db, "--psi", "0"])).unwrap_err();
    assert!(e.0.contains("unknown flag --psi for 'stats'"), "{e}");
}

#[test]
fn metrics_out_writes_documented_schema() {
    let dir = tmpdir("metrics");
    let db = write_db(&dir, "db.seq", "a b c\nb a c\nc c a\na c\n");
    let metrics_path = dir.join("metrics.json").to_string_lossy().into_owned();
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--metrics-out",
        &metrics_path,
    ]))
    .unwrap();
    assert!(out.contains("wrote metrics to"), "{out}");
    let json = fs::read_to_string(&metrics_path).unwrap();
    for key in [
        "\"schema_version\": 4",
        "\"obs_enabled\"",
        "\"phases\"",
        "\"counters\"",
        "\"gauges\"",
        "\"peak_resident_batch\"",
        "\"histograms\"",
        "\"marks_introduced\"",
        "\"victims_processed\"",
        "\"victim_marks\"",
        "\"victim_nanos\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    if seqhide_obs::is_enabled() {
        // the run visited the sanitize tree: phases are non-empty and the
        // local phase points at its parent
        assert!(json.contains("\"name\": \"sanitize\""), "{json}");
        assert!(
            json.contains("\"name\": \"local_sanitize\", \"parent\": \"sanitize\""),
            "{json}"
        );
        assert!(json.contains("\"name\": \"verify\""), "{json}");
    }
    // mine writes the same schema
    let mine_metrics = dir.join("mine.json").to_string_lossy().into_owned();
    run(&args(&[
        "mine",
        "--db",
        &db,
        "--sigma",
        "2",
        "--metrics-out",
        &mine_metrics,
    ]))
    .unwrap();
    let json = fs::read_to_string(&mine_metrics).unwrap();
    assert!(json.contains("\"patterns_checked\""), "{json}");
    if seqhide_obs::is_enabled() {
        assert!(json.contains("\"name\": \"mine\""), "{json}");
    }
}

/// `--metrics-out` must not silently drop the run's telemetry when the
/// command fails: the snapshot is still written, with an `"error"` field
/// carrying the message, and the failure still propagates.
#[test]
fn metrics_out_written_on_command_error() {
    let dir = tmpdir("metricserr");
    let db = write_db(&dir, "db.seq", "a b c\na c\n");
    let metrics_path = dir.join("failed.json").to_string_lossy().into_owned();
    // verify fails (the pattern is NOT hidden in the original db)
    let e = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--post",
        "nonsense",
        "--metrics-out",
        &metrics_path,
    ]))
    .unwrap_err();
    assert!(e.0.contains("unknown post strategy"), "{e}");
    let json = fs::read_to_string(&metrics_path).unwrap();
    assert!(json.contains("\"schema_version\": 4"), "{json}");
    assert!(
        json.contains("\"error\": \"unknown post strategy 'nonsense'"),
        "{json}"
    );
    if seqhide_obs::is_enabled() {
        // the sanitize work done before the failure is still accounted
        assert!(json.contains("\"name\": \"sanitize\""), "{json}");
    }
    // a successful run never carries the key
    let ok_path = dir.join("ok.json").to_string_lossy().into_owned();
    run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--metrics-out",
        &ok_path,
    ]))
    .unwrap();
    assert!(!fs::read_to_string(&ok_path).unwrap().contains("\"error\""));
}

#[test]
fn progress_flag_is_accepted_and_scoped() {
    let dir = tmpdir("progress");
    let db = write_db(&dir, "db.seq", "a b\na b\nb a\n");
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a b",
        "--progress",
    ]))
    .unwrap();
    assert!(out.contains("total marks (M1):"));
    // progress is disabled again once the command returns
    assert!(!seqhide_obs::progress::enabled());
    // verify does not take --progress
    let e = run(&args(&[
        "verify",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a b",
        "--progress",
    ]))
    .unwrap_err();
    assert!(e.0.contains("unknown flag --progress for 'verify'"), "{e}");
}

#[test]
fn stream_flag_releases_identical_bytes() {
    let dir = tmpdir("stream");
    let db = write_db(
        &dir,
        "db.seq",
        "a b c\nb a c\nc a b c\na c\nb b\nc a\na b a c\n",
    );
    for algorithm in ["hh", "rr"] {
        for batch in ["1", "3", "100"] {
            let mem_path = dir.join("mem.seq").to_string_lossy().into_owned();
            let stream_path = dir.join("stream.seq").to_string_lossy().into_owned();
            let common = [
                "--db",
                &db,
                "--psi",
                "1",
                "--pattern",
                "a c",
                "--algorithm",
                algorithm,
                "--seed",
                "9",
                "--threads",
                "2",
            ];
            let mut mem_args = args(&["hide"]);
            mem_args.extend(args(&common));
            mem_args.extend(args(&["--out", &mem_path]));
            run(&mem_args).unwrap();
            let mut stream_args = args(&["hide"]);
            stream_args.extend(args(&common));
            stream_args.extend(args(&[
                "--stream",
                "--batch-size",
                batch,
                "--out",
                &stream_path,
            ]));
            let out = run(&stream_args).unwrap();
            assert!(out.contains("stream:"), "{out}");
            assert!(out.contains("total marks (M1):"), "{out}");
            assert_eq!(
                fs::read_to_string(&mem_path).unwrap(),
                fs::read_to_string(&stream_path).unwrap(),
                "algorithm={algorithm} batch={batch}"
            );
        }
    }
    // without --out the release streams to stdout, same bytes
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--stream",
    ]))
    .unwrap();
    let mem = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
    ]))
    .unwrap();
    let tail = |s: &str| {
        s.lines()
            .filter(|l| !l.contains(':'))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(tail(&out), tail(&mem));
}

#[test]
fn stream_flag_rejects_unsupported_combos() {
    let dir = tmpdir("streambad");
    let db = write_db(&dir, "db.seq", "a b\n");
    // plain --pattern and --regex cannot stream together (one class per run)
    let e = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a",
        "--regex",
        "a b",
        "--stream",
    ]))
    .unwrap_err();
    assert!(e.0.contains("one pattern class per run"), "{e}");
    let e = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a",
        "--stream",
        "--post",
        "delete",
    ]))
    .unwrap_err();
    assert!(e.0.contains("--stream writes incrementally"), "{e}");
    // --regex only applies to plain-mode databases
    let e = run(&args(&[
        "hide", "--db", &db, "--mode", "itemset", "--psi", "0", "--regex", "a b", "--stream",
    ]))
    .unwrap_err();
    assert!(e.0.contains("plain mode only"), "{e}");
    let e = run(&args(&["hide", "--db", &db, "--psi", "0", "--stream"])).unwrap_err();
    assert!(e.0.contains("nothing to hide"), "{e}");
}

/// `--stream` now covers every pattern class: itemset and timed modes and
/// regex patterns must release byte-identical files to the in-memory path
/// on the same seed, across algorithms and batch sizes.
#[test]
fn stream_releases_identical_bytes_for_every_domain() {
    let dir = tmpdir("streamdomains");
    let idb = write_db(
        &dir,
        "baskets.db",
        "test,bread vitamins,milk\nbread milk\ntest vitamins\ntest,milk vitamins,bread\nmilk test\n",
    );
    let tdb = write_db(
        &dir,
        "events.db",
        "test@0 arv@24\ntest@0 arv@200\ntest@5 xray@40 arv@60\ntest@1 arv@30\narv@2 test@9\n",
    );
    let rdb = write_db(&dir, "plain.seq", "a b\na c\na b c\nx y\na c b\nb a c a\n");
    let cases: &[(&str, &[&str])] = &[
        (
            "itemset",
            &[
                "--db",
                &idb,
                "--mode",
                "itemset",
                "--pattern",
                "test vitamins",
            ],
        ),
        (
            "timed",
            &[
                "--db",
                &tdb,
                "--mode",
                "timed",
                "--pattern",
                "test arv",
                "--max-gap",
                "72",
            ],
        ),
        ("regex", &["--db", &rdb, "--regex", "a (b | c)"]),
    ];
    for (name, common) in cases {
        for algorithm in ["hh", "rr"] {
            for batch in ["1", "2", "100"] {
                let mem_path = dir.join("mem.out").to_string_lossy().into_owned();
                let stream_path = dir.join("stream.out").to_string_lossy().into_owned();
                let shared = [
                    "--psi",
                    "1",
                    "--algorithm",
                    algorithm,
                    "--seed",
                    "9",
                    "--threads",
                    "2",
                ];
                let mut mem_args = args(&["hide"]);
                mem_args.extend(args(common));
                mem_args.extend(args(&shared));
                mem_args.extend(args(&["--out", &mem_path]));
                run(&mem_args).unwrap_or_else(|e| panic!("{name} mem: {e}"));
                let mut stream_args = args(&["hide"]);
                stream_args.extend(args(common));
                stream_args.extend(args(&shared));
                stream_args.extend(args(&[
                    "--stream",
                    "--batch-size",
                    batch,
                    "--out",
                    &stream_path,
                ]));
                let out = run(&stream_args).unwrap_or_else(|e| panic!("{name} stream: {e}"));
                assert!(out.contains("stream:"), "{name}: {out}");
                assert!(out.contains(&format!("{name} patterns:")), "{name}: {out}");
                assert_eq!(
                    fs::read_to_string(&mem_path).unwrap(),
                    fs::read_to_string(&stream_path).unwrap(),
                    "domain={name} algorithm={algorithm} batch={batch}"
                );
            }
        }
    }
}

#[test]
fn stream_metrics_expose_pass_phases_and_peak_gauge() {
    let dir = tmpdir("streammetrics");
    let db = write_db(&dir, "db.seq", "a b c\nb a c\na c\na c b a\n");
    let metrics_path = dir.join("metrics.json").to_string_lossy().into_owned();
    run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--stream",
        "--batch-size",
        "2",
        "--metrics-out",
        &metrics_path,
    ]))
    .unwrap();
    let json = fs::read_to_string(&metrics_path).unwrap();
    assert!(json.contains("\"peak_resident_batch\""), "{json}");
    if seqhide_obs::is_enabled() {
        assert!(json.contains("\"name\": \"stream_pass1\""), "{json}");
        assert!(json.contains("\"name\": \"stream_pass2\""), "{json}");
        // 2 sequences × ≤ 4 symbols × 4 bytes each — nonzero, bounded
        assert!(!json.contains("\"peak_resident_batch\": 0"), "{json}");
    }
}

/// Regression: `--post delete` used to re-verify only plain `S_h`, so a
/// gap-constrained **regex** pattern destroyed in stage 1 could be
/// resurrected by Δ-deletion (deleting the mark glues its neighbours
/// together). The db ⟨a x b⟩ with regex "a b" at max-gap 0 is the minimal
/// case: hiding --pattern x marks the middle, deletion yields ⟨a b⟩ — a
/// fresh adjacent occurrence the old code shipped.
#[test]
fn post_delete_reverifies_regex_patterns() {
    let dir = tmpdir("deleteregex");
    let db = write_db(&dir, "db.seq", "a x b\n");
    let out_path = dir.join("released.seq").to_string_lossy().into_owned();
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "x",
        "--regex",
        "a b",
        "--max-gap",
        "0",
        "--post",
        "delete",
        "--out",
        &out_path,
    ]))
    .unwrap();
    assert!(out.contains("post: deleted Δ"), "{out}");
    let released = fs::read_to_string(&out_path).unwrap();
    assert!(
        !released.contains('Δ'),
        "release must be mark-free: {released}"
    );
    // the adjacent occurrence must NOT have been resurrected
    for line in released.lines() {
        assert!(
            !line.contains("a b"),
            "regex pattern resurrected by deletion: {released}"
        );
    }
    // and the plain pattern stayed hidden too
    assert!(!released.contains('x'), "{released}");
}

#[test]
fn report_flag_surfaces_engine_stats() {
    let dir = tmpdir("repstats");
    let db = write_db(&dir, "db.seq", "a b c\nb a c\nc c a\na c\n");
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--report",
    ]))
    .unwrap();
    assert!(
        out.contains("cell repairs") && out.contains("fallback recounts"),
        "{out}"
    );
}

#[test]
fn version_flag_is_globally_recognized() {
    for invocation in [&["--version"][..], &["-V"], &["version"]] {
        let out = run(&args(invocation)).unwrap();
        assert_eq!(out, format!("seqhide {}\n", env!("CARGO_PKG_VERSION")));
    }
    // help mentions it
    assert!(run(&args(&["help"])).unwrap().contains("--version"));
}

#[test]
fn stream_batch_size_zero_is_a_pointed_error() {
    let dir = tmpdir("batchzero");
    let db = write_db(&dir, "db.seq", "a b c\na c\n");
    let e = run(&args(&[
        "hide",
        "--db",
        &db,
        "--psi",
        "0",
        "--pattern",
        "a c",
        "--stream",
        "--batch-size",
        "0",
    ]))
    .unwrap_err();
    assert!(e.0.contains("--batch-size must be ≥ 1"), "{e}");
}

/// Satellite of the DistortOp refactor: every Δ-mark-only domain must
/// reject `--op delete|substitute` with a pointed "did you mean" error,
/// while `--op mark` (the default, spelled out) passes everywhere and the
/// string domain accepts all three operator families.
#[test]
fn edit_ops_are_rejected_outside_the_string_domain() {
    let dir = tmpdir("opmatrix");
    let pdb = write_db(&dir, "plain.seq", "a b\nb a\n");
    let idb = write_db(&dir, "baskets.db", "a,b c\nc a\n");
    let tdb = write_db(&dir, "events.db", "a@0 b@5\nb@0 a@9\n");
    let mark_only: &[(&str, &[&str])] = &[
        ("plain patterns", &["--db", &pdb, "--pattern", "a b"]),
        (
            "itemset patterns",
            &["--db", &idb, "--mode", "itemset", "--pattern", "a b"],
        ),
        (
            "timed patterns",
            &["--db", &tdb, "--mode", "timed", "--pattern", "a b"],
        ),
        ("regex patterns", &["--db", &pdb, "--regex", "a b"]),
    ];
    for (noun, common) in mark_only {
        for op in ["delete", "substitute"] {
            let mut a = args(&["hide", "--psi", "0", "--op", op]);
            a.extend(args(common));
            let e = run(&a).unwrap_err();
            assert!(
                e.0.contains(noun) && e.0.contains("did you mean --domain string?"),
                "{noun} --op {op}: {e}"
            );
        }
        // spelling out the default is fine everywhere
        let mut a = args(&["hide", "--psi", "0", "--op", "mark"]);
        a.extend(args(common));
        let out = run(&a).unwrap_or_else(|e| panic!("{noun} --op mark: {e}"));
        assert!(out.contains(noun), "{noun}: {out}");
    }
    // the string domain accepts all three families
    for op in ["mark", "delete", "substitute"] {
        let out = run(&args(&[
            "hide",
            "--db",
            &pdb,
            "--domain",
            "string",
            "--psi",
            "0",
            "--pattern",
            "a b",
            "--op",
            op,
        ]))
        .unwrap_or_else(|e| panic!("string --op {op}: {e}"));
        assert!(out.contains("string patterns:"), "{out}");
    }
    // bad values and conflicting mode/domain pairs are pointed errors
    let e = run(&args(&[
        "hide",
        "--db",
        &pdb,
        "--psi",
        "0",
        "--pattern",
        "a",
        "--op",
        "shred",
    ]))
    .unwrap_err();
    assert!(
        e.0.contains("unknown op 'shred' (mark|delete|substitute)"),
        "{e}"
    );
    let e = run(&args(&[
        "hide",
        "--db",
        &pdb,
        "--psi",
        "0",
        "--pattern",
        "a",
        "--domain",
        "str",
    ]))
    .unwrap_err();
    assert!(
        e.0.contains("unknown domain 'str' (plain|itemset|timed|regex|string)"),
        "{e}"
    );
    let e = run(&args(&[
        "hide",
        "--db",
        &pdb,
        "--psi",
        "0",
        "--pattern",
        "a",
        "--domain",
        "string",
        "--mode",
        "itemset",
    ]))
    .unwrap_err();
    assert!(
        e.0.contains("--domain string reads plain-format input; drop --mode itemset"),
        "{e}"
    );
}

/// The substring domain's edit operators at the CLI surface: `--op delete`
/// and `--op substitute` release databases with **zero** Δ marks and zero
/// surviving sensitive occurrences, and `--stream` reproduces the
/// in-memory bytes exactly for every operator family.
#[test]
fn string_domain_edits_and_streams_identically() {
    let dir = tmpdir("stringdomain");
    let db = write_db(&dir, "db.seq", "a b c\na b d\nc a b\nb a\na b a b\n");
    for op in ["mark", "delete", "substitute"] {
        for algorithm in ["hh", "rr"] {
            let mem_path = dir.join("mem.seq").to_string_lossy().into_owned();
            let stream_path = dir.join("stream.seq").to_string_lossy().into_owned();
            let common = [
                "--db",
                &db,
                "--domain",
                "string",
                "--psi",
                "0",
                "--pattern",
                "a b",
                "--op",
                op,
                "--algorithm",
                algorithm,
                "--seed",
                "9",
                "--threads",
                "2",
            ];
            let mut mem_args = args(&["hide"]);
            mem_args.extend(args(&common));
            mem_args.extend(args(&["--out", &mem_path]));
            let out = run(&mem_args).unwrap_or_else(|e| panic!("{op}/{algorithm} mem: {e}"));
            assert!(out.contains("string patterns:"), "{out}");
            assert!(out.contains("residual supports [0]"), "{out}");
            let mut stream_args = args(&["hide"]);
            stream_args.extend(args(&common));
            stream_args.extend(args(&[
                "--stream",
                "--batch-size",
                "2",
                "--out",
                &stream_path,
            ]));
            run(&stream_args).unwrap_or_else(|e| panic!("{op}/{algorithm} stream: {e}"));
            let mem = fs::read_to_string(&mem_path).unwrap();
            assert_eq!(
                mem,
                fs::read_to_string(&stream_path).unwrap(),
                "op={op} algorithm={algorithm}"
            );
            // edit operators must leave neither marks nor occurrences
            if op != "mark" {
                assert!(!mem.contains('Δ'), "op={op}: {mem}");
                for line in mem.lines() {
                    assert!(!line.contains("a b"), "op={op} resurrected: {mem}");
                }
            }
        }
    }
    // untouched sequences survive byte-for-byte
    let out = run(&args(&[
        "hide",
        "--db",
        &db,
        "--domain",
        "string",
        "--psi",
        "0",
        "--pattern",
        "a b",
        "--op",
        "delete",
    ]))
    .unwrap();
    assert!(out.contains("b a\n"), "{out}");
    // string hides edit in place: the Δ post-stages don't apply
    let e = run(&args(&[
        "hide",
        "--db",
        &db,
        "--domain",
        "string",
        "--psi",
        "0",
        "--pattern",
        "a b",
        "--post",
        "delete",
    ]))
    .unwrap_err();
    assert!(
        e.0.contains("--domain string edits during sanitization"),
        "{e}"
    );
}

/// Regression for the generalized `--post delete`: constrained non-plain
/// domains used to skip re-verification entirely. The itemset case is the
/// resurrection trap — deleting a marked item empties its element, the
/// element is dropped, and the neighbours become adjacent, re-creating a
/// max-gap-0 occurrence the old code would have shipped. The timed case
/// proves the converse: deletion preserves surviving tick tags, so a
/// time-expressed gap can never resurrect and one round suffices.
#[test]
fn post_delete_reverifies_constrained_domains() {
    let dir = tmpdir("postdomains");
    // itemset: hide x collaterally, a…b glued adjacent by element dropping
    let idb = write_db(&dir, "baskets.db", "a x b\n");
    let out_path = dir.join("rel.db").to_string_lossy().into_owned();
    let out = run(&args(&[
        "hide",
        "--db",
        &idb,
        "--mode",
        "itemset",
        "--psi",
        "0",
        "--pattern",
        "x",
        "--pattern",
        "a b",
        "--max-gap",
        "0",
        "--post",
        "delete",
        "--out",
        &out_path,
    ]))
    .unwrap();
    assert!(out.contains("post: deleted Δ"), "{out}");
    assert!(
        !out.contains("(1 round(s))"),
        "resurrection not caught: {out}"
    );
    let released = fs::read_to_string(&out_path).unwrap();
    assert!(!released.contains('Δ'), "{released}");
    assert!(!released.contains('x'), "{released}");
    for line in released.lines() {
        assert!(
            !line.contains("a b"),
            "itemset pattern resurrected: {released}"
        );
    }
    // timed: tick tags survive deletion, so one round converges
    let tdb = write_db(&dir, "events.db", "test@0 arv@24\ntest@0 arv@200\n");
    let out_path = dir.join("rel2.db").to_string_lossy().into_owned();
    let out = run(&args(&[
        "hide",
        "--db",
        &tdb,
        "--mode",
        "timed",
        "--psi",
        "0",
        "--pattern",
        "test arv",
        "--max-gap",
        "72",
        "--post",
        "delete",
        "--out",
        &out_path,
    ]))
    .unwrap();
    assert!(out.contains("post: deleted Δ (1 round(s))"), "{out}");
    let released = fs::read_to_string(&out_path).unwrap();
    assert!(!released.contains('Δ'), "{released}");
    // the wide-gap row is untouched
    assert!(released.contains("test@0 arv@200"), "{released}");
}

#[test]
fn serve_rejects_degenerate_pool_and_queue_sizes() {
    let e = run(&args(&["serve", "--addr", "127.0.0.1:0", "--threads", "0"])).unwrap_err();
    assert!(e.0.contains("--threads must be ≥ 1"), "{e}");
    let e = run(&args(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--queue-depth",
        "0",
    ]))
    .unwrap_err();
    assert!(e.0.contains("--queue-depth must be ≥ 1"), "{e}");
    // unknown serve flags get the usual "did you mean"
    let e = run(&args(&["serve", "--queue-dept", "4"])).unwrap_err();
    assert!(e.0.contains("did you mean --queue-depth?"), "{e}");
}

/// Regression: `--regex` outside plain mode used to be ignored by the
/// in-memory timed and itemset paths, releasing the regex's occurrences
/// unhidden with exit 0. Every path now rejects it.
#[test]
fn regex_outside_plain_mode_is_rejected_not_ignored() {
    let dir = tmpdir("regexmode");
    let timed = write_db(&dir, "timed.db", "b@0 a@1 c@4\na@0 c@2\nb@1 c@3\n");
    let itemset = write_db(&dir, "itemset.db", "b a c\na c\nb c\n");
    for (db, mode) in [(&timed, "timed"), (&itemset, "itemset")] {
        for stream in [false, true] {
            let mut a = args(&[
                "hide",
                "--db",
                db,
                "--mode",
                mode,
                "--psi",
                "0",
                "--pattern",
                "a c",
                "--regex",
                "b c",
            ]);
            if stream {
                a.push("--stream".to_string());
            }
            let e = run(&a).unwrap_err();
            assert!(
                e.0.contains("plain mode only"),
                "{mode} stream={stream}: {e}"
            );
        }
    }
}

/// Regression: `--domain regex --stream` used to drop `--pattern` and
/// release the plain pattern unhidden. Streaming hides one family per
/// run, so giving both is rejected; in memory both are hidden.
#[test]
fn regex_domain_stream_rejects_patterns_and_regexes_together() {
    let dir = tmpdir("regexboth");
    let db = write_db(&dir, "db.seq", "a b c\na c\nb a c\nb c a c\n");
    let both = ["--pattern", "a c", "--regex", "b c"];
    let mut a = args(&["hide", "--db", &db, "--domain", "regex", "--psi", "0"]);
    a.extend(args(&both));
    let mut streamed = a.clone();
    streamed.push("--stream".to_string());
    let e = run(&streamed).unwrap_err();
    assert!(e.0.contains("not both"), "{e}");

    let out_path = dir.join("rel.seq").to_string_lossy().into_owned();
    a.extend(args(&["--out", &out_path]));
    run(&a).unwrap();
    for pattern in ["a c", "b c"] {
        let verdict = run(&args(&[
            "verify",
            "--db",
            &out_path,
            "--psi",
            "0",
            "--pattern",
            pattern,
        ]))
        .unwrap();
        assert!(verdict.ends_with("HIDDEN\n"), "{pattern}: {verdict}");
    }
}

/// Regression: timed gaps skipped the `max ≥ min` check, so an
/// unsatisfiable gap released the database unchanged ("0 event marks")
/// with exit 0. The shared constraint builder rejects it on every path.
#[test]
fn timed_gaps_are_validated_like_index_gaps() {
    let dir = tmpdir("timedgaps");
    let db = write_db(&dir, "timed.db", "a@0 c@4\na@1 b@2 c@9\n");
    let edits = write_db(&dir, "edits.txt", "+ a@0 c@1\n");
    for extra in [&[][..], &["--stream"], &["--delta", &edits]] {
        let mut a = args(&[
            "hide",
            "--db",
            &db,
            "--mode",
            "timed",
            "--psi",
            "0",
            "--pattern",
            "a c",
            "--min-gap",
            "5",
            "--max-gap",
            "1",
        ]);
        a.extend(args(extra));
        let e = run(&a).unwrap_err();
        assert!(e.0.contains("max_gap must be ≥ min_gap"), "{extra:?}: {e}");
    }
}
