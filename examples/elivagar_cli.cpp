/**
 * @file
 * Command-line front end for the library: run an Elivagar search for any
 * catalog benchmark on any catalog device, train the winner, report
 * noiseless/noisy accuracy, and optionally dump the circuit (native text
 * or bound OpenQASM).
 *
 * Usage:
 *   elivagar_cli [--benchmark NAME] [--device NAME] [--candidates N]
 *                [--epochs N] [--seed N] [--scale F] [--threads N]
 *                [--workers N] [--attach host:port] [--checkpoint PATH]
 *                [--emit text|qasm] [--trace FILE] [--metrics]
 *                [--report FILE] [--list]
 *
 * --workers N fans the candidate evaluation out over N local worker
 * processes (forked elivagar_worker binaries); --attach adds running
 * `elivagar_worker --serve` peers. The merged ranking is bit-identical
 * to the single-process search at any worker count. --checkpoint PATH
 * journals a distributed search exactly as it journals an in-process
 * one, so a crashed run resumes at any worker count or none; a worker
 * that dies mid-shard is replaced and its remaining candidates
 * reissued automatically either way.
 *   elivagar_cli lint [FILE ...] [--builtin] [--device NAME]
 *                [--replica] [--require-embedding-prefix] [--rules]
 *   elivagar_cli submit|status|cancel|result|watch|health|metrics|
 *                events [--host A] [--port N] ...  (thin client mode)
 *
 * One-shot runs accept --deadline-sec: the search is cancelled
 * cooperatively when the wall-clock budget expires (exit status 3);
 * with --checkpoint the finished stages stay journaled, so re-running
 * resumes instead of starting over.
 *
 * Client mode talks to a running elivagar_server over its JSON line
 * protocol: `submit` sends the core::RunSpec that the one-shot run's
 * spec flags (--benchmark/--device/...) build, parsed by the same
 * function with the same defaults; `watch` streams status lines until
 * the job reaches a terminal state.
 *
 * Observability: --trace writes a Chrome trace_event JSON of the search
 * (open in https://ui.perfetto.dev), --metrics turns on the counter
 * registry and prints it after the search, --report writes the
 * structured run report, and --profile samples the whole run — search,
 * training and evaluation — with the SIGPROF profiler and writes
 * collapsed stacks (feed to flamegraph.pl / speedscope).
 *
 * The `lint` subcommand runs the elvlint static verifier over circuit
 * files in the native text format (and, with --builtin, over every
 * builder template, generated candidate, and catalog device). Exit
 * status 1 when any error-severity diagnostic fires.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/serialize.hpp"
#include "common/cancel.hpp"
#include "common/file_write.hpp"
#include "common/flag_number.hpp"
#include "common/logging.hpp"
#include "common/retry.hpp"
#include "core/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "compiler/compile.hpp"
#include "core/candidate_gen.hpp"
#include "core/run_report.hpp"
#include "core/run_spec.hpp"
#include "core/search.hpp"
#include "device/device.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "noise/noise_model.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"
#include "server/protocol.hpp"
#include "server/tcp.hpp"
#include "sim/fusion.hpp"

namespace {

using elv::flag_number;

/**
 * Parse the run-spec flag `arg` into `spec`, taking its value from
 * `value()`; false when `arg` is no spec flag. The one-shot run and
 * `submit` both parse with this, so they share flags and defaults;
 * their callers range-check the result with spec.check().
 */
template <typename Value>
bool
parse_spec_flag(const std::string &arg, Value &&value,
                elv::core::RunSpec &spec)
{
    if (arg == "--benchmark")
        spec.benchmark = value();
    else if (arg == "--device")
        spec.device = value();
    else if (arg == "--candidates")
        spec.candidates = flag_number<int>(arg, value());
    else if (arg == "--seed")
        spec.seed = flag_number<std::uint64_t>(arg, value());
    else if (arg == "--scale")
        spec.scale = flag_number<double>(arg, value());
    else if (arg == "--deadline-sec")
        spec.deadline_sec = flag_number<double>(arg, value());
    else if (arg == "--workers")
        spec.workers = flag_number<int>(arg, value());
    else
        return false;
    return true;
}

struct CliOptions
{
    /** The spec flags; the deadline covers the search phase. */
    elv::core::RunSpec spec;
    int epochs = 40;
    std::string emit; // "", "text" or "qasm"
    std::string checkpoint;
    int threads = 0; // 0 = one per hardware thread
    std::string trace_path;
    std::string profile_path;
    std::string report_path;
    bool metrics = false;
    /** Remote `elivagar_worker --serve` peers to attach (host:port). */
    std::vector<std::string> attach;
    /** Worker binary override ("" = next to this binary / $PATH). */
    std::string worker_bin;
    /** Write the full candidate ranking (deterministic, hexfloat). */
    std::string dump_ranking;
    /** Stop after the search: skip training/eval (CI byte-compares). */
    bool search_only = false;
    /** Test hook: first local worker SIGKILLs itself after N records. */
    int dist_test_crash = 0;
};

void
print_usage()
{
    std::printf(
        "usage: elivagar_cli [options]\n"
        "  --benchmark NAME   Table 2 benchmark (default moons)\n"
        "  --device NAME      Table 3 device (default ibm_lagos)\n"
        "  --candidates N     search pool size (default 32)\n"
        "  --epochs N         training epochs (default 40)\n"
        "  --seed N           search/data seed (default 7)\n"
        "  --scale F          dataset scale in (0,1] (default 0.3)\n"
        "  --threads N        search worker threads (default: all "
        "hardware threads; results are identical for any N)\n"
        "  --workers N        fan the evaluation out over N local "
        "worker processes;\n"
        "                     the merged ranking is bit-identical to "
        "the\n"
        "                     single-process search\n"
        "  --attach H:P       also use a running `elivagar_worker "
        "--serve` at host H\n"
        "                     port P (repeatable)\n"
        "  --worker-bin PATH  worker binary for --workers (default: "
        "the\n"
        "                     elivagar_worker next to this binary)\n"
        "  --dump-ranking F   write the full candidate ranking to F "
        "(hexfloat,\n"
        "                     deterministic — byte-comparable)\n"
        "  --search-only      stop after the search (skip training "
        "and accuracy\n"
        "                     evaluation)\n"
        "  --emit text|qasm   print the selected circuit\n"
        "  --checkpoint PATH  journal the search, in-process or on "
        "workers; resumes\n"
        "                     if PATH exists, at any worker count\n"
        "  --deadline-sec F   cancel the search after F seconds of "
        "wall clock\n"
        "                     (exit 3; journaled stages survive)\n"
        "  --trace FILE       write a Chrome trace of the search "
        "(Perfetto-viewable)\n"
        "  --profile FILE     sample the whole run (search, training, "
        "evaluation)\n"
        "                     with SIGPROF and write collapsed stacks "
        "(flamegraph\n"
        "                     input)\n"
        "  --metrics          collect and print pipeline metrics\n"
        "  --report FILE      write the structured run report JSON\n"
        "  --list             list benchmarks and devices, then exit\n"
        "subcommands:\n"
        "  lint               static-verify circuits and devices "
        "(elivagar_cli lint --help)\n"
        "  submit|status|cancel|result|watch|health|metrics|events\n"
        "                     talk to a running elivagar_server "
        "(elivagar_cli submit --help)\n");
}

bool
parse(int argc, char **argv, CliOptions &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                elv::fatal("missing value for " + arg);
            return argv[++i];
        };
        if (parse_spec_flag(arg, value, options.spec))
            continue;
        if (arg == "--epochs")
            options.epochs = flag_number(arg, value(), 0, 1000000);
        else if (arg == "--threads")
            options.threads = flag_number(arg, value(), 0, 1024);
        else if (arg == "--attach")
            options.attach.push_back(value());
        else if (arg == "--worker-bin")
            options.worker_bin = value();
        else if (arg == "--dump-ranking")
            options.dump_ranking = value();
        else if (arg == "--search-only")
            options.search_only = true;
        else if (arg == "--dist-test-crash")
            options.dist_test_crash = flag_number<int>(arg, value(), 0);
        else if (arg == "--emit")
            options.emit = value();
        else if (arg == "--checkpoint")
            options.checkpoint = value();
        else if (arg == "--trace")
            options.trace_path = value();
        else if (arg == "--profile")
            options.profile_path = value();
        else if (arg == "--report")
            options.report_path = value();
        else if (arg == "--metrics")
            options.metrics = true;
        else if (arg == "--list") {
            std::printf("benchmarks:");
            for (const auto &spec : elv::qml::benchmark_table())
                std::printf(" %s", spec.name.c_str());
            std::printf("\ndevices:");
            for (const auto &name : elv::dev::device_catalog())
                std::printf(" %s", name.c_str());
            std::printf("\n");
            return false;
        } else if (arg == "--help" || arg == "-h") {
            print_usage();
            return false;
        } else {
            elv::fatal("unknown option: " + arg);
        }
    }
    if (!options.emit.empty() && options.emit != "text" &&
        options.emit != "qasm")
        elv::fatal("--emit expects 'text' or 'qasm'");
    options.spec.check();
    return true;
}

/** Options for the `lint` subcommand. */
struct LintCliOptions
{
    std::vector<std::string> files;
    std::string device; // empty = structural lint only
    bool builtin = false;
    bool replica = false;
    bool require_embedding_prefix = false;
    std::uint64_t seed = 7;
    /** Warnings fail the run (after baseline suppression). */
    bool werror = false;
    /** Output format: "text", "json" or "sarif". */
    std::string format = "text";
    /** Rewrite FILE arguments with dead structure elided. */
    bool fix = false;
    /** Baseline file suppressing known findings ("" = none). */
    std::string baseline_path;
    /** Write the current findings as a baseline file, then exit. */
    std::string write_baseline_path;
};

void
print_lint_usage()
{
    std::printf(
        "usage: elivagar_cli lint [FILE ...] [options]\n"
        "  FILE ...           circuits in the native text format\n"
        "  --builtin          lint the builder templates, generated\n"
        "                     candidates, compiled/fused programs, and\n"
        "                     every catalog device model\n"
        "  --device NAME      also check 2-qubit gates against NAME's\n"
        "                     coupling map\n"
        "  --replica          enable the clifford-replica rules\n"
        "  --require-embedding-prefix\n"
        "                     require embeddings before variational "
        "gates\n"
        "  --seed N           seed for --builtin generators (default "
        "7)\n"
        "  --werror           exit nonzero on warnings too\n"
        "  --format FMT       output format: text (default), json, "
        "sarif\n"
        "  --fix              rewrite FILEs in place with dead "
        "structure\n"
        "                     elided (out-of-lightcone ops removed, "
        "dead\n"
        "                     parameter slots dropped), then re-lint\n"
        "  --baseline FILE    suppress findings listed in FILE "
        "(exit-code\n"
        "                     counts skip them; SARIF marks them "
        "suppressed)\n"
        "  --write-baseline FILE\n"
        "                     write the current findings to FILE and "
        "exit 0\n"
        "  --rules            list the rule catalog, then exit\n"
        "exit status: 1 when any error fires (with --werror: any "
        "error\n"
        "or warning) that the baseline does not suppress\n");
}

/** Text rendering of one artifact's report (non-suppressed count). */
void
print_artifact_text(const elv::lint::ArtifactReport &entry)
{
    using elv::lint::Severity;
    const std::size_t errors = entry.report.count(Severity::Error);
    if (entry.report.diagnostics.empty()) {
        std::printf("  %-40s clean\n", entry.artifact.c_str());
    } else {
        std::printf("  %-40s %zu error(s), %zu warning(s)\n",
                    entry.artifact.c_str(), errors,
                    entry.report.count(Severity::Warning));
        std::printf("%s", entry.report.to_string().c_str());
    }
}

/**
 * Lint everything the library can build: each builder template, the
 * device models, and — per catalog device — generated candidates plus
 * their compiled and fused forms. This is the CI lint-smoke and
 * lint-gate surface; results are appended to `reports` and rendered by
 * the caller in the selected format.
 */
void
lint_builtin(const LintCliOptions &options,
             std::vector<elv::lint::ArtifactReport> &reports)
{
    using namespace elv;

    const circ::EmbeddingScheme schemes[] = {
        circ::EmbeddingScheme::Angle, circ::EmbeddingScheme::IQP,
        circ::EmbeddingScheme::Amplitude};
    const char *scheme_names[] = {"angle", "iqp", "amplitude"};
    for (int s = 0; s < 3; ++s) {
        const int features =
            schemes[static_cast<std::size_t>(s)] ==
                    circ::EmbeddingScheme::Amplitude
                ? 16
                : 4;
        const circ::Circuit c = circ::build_human_designed(
            4, features, 12, 2, schemes[static_cast<std::size_t>(s)]);
        reports.push_back({std::string("human-designed/") +
                               scheme_names[static_cast<std::size_t>(s)],
                           lint::lint_circuit(c)});
    }
    {
        elv::Rng rng(options.seed);
        const circ::Circuit c =
            circ::build_random_rxyz_cz(4, 4, 16, 2, rng);
        reports.push_back({"random-rxyz-cz", lint::lint_circuit(c)});
    }

    for (const auto &name : dev::device_catalog()) {
        const dev::Device device = dev::make_device(name);
        reports.push_back({name, lint::lint_device(device)});
    }

    for (const auto &name : dev::device_catalog()) {
        const dev::Device device = dev::make_device(name);
        elv::Rng rng(options.seed);
        core::CandidateConfig config;
        config.num_qubits = std::min(4, device.num_qubits());
        config.num_params = 12;
        config.num_embeds = 4;
        config.num_meas = 2;
        config.num_features = 4;
        lint::LintOptions device_checked;
        device_checked.device = &device;
        for (int i = 0; i < 4; ++i) {
            const circ::Circuit c =
                core::generate_candidate(device, config, rng);
            reports.push_back(
                {name + "/candidate-" + std::to_string(i),
                 lint::lint_circuit(c, device_checked)});
        }
        // Device-unaware candidates become device-native through the
        // compiler; the compiled output must satisfy the connectivity
        // rule, and its fused form the barrier invariants.
        const circ::Circuit logical =
            core::generate_device_unaware(config, rng);
        const auto compiled =
            comp::compile_for_device(logical, device, 2, rng);
        reports.push_back(
            {name + "/compiled",
             lint::lint_circuit(compiled.circuit, device_checked)});
        const sim::FusedProgram fused =
            sim::FusedProgram::compile(compiled.circuit);
        reports.push_back({name + "/fused",
                           lint::lint_program(fused, compiled.circuit,
                                              device_checked)});
    }
}

int
run_lint(int argc, char **argv)
{
    using namespace elv;

    LintCliOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                elv::fatal("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--builtin")
            options.builtin = true;
        else if (arg == "--device")
            options.device = value();
        else if (arg == "--replica")
            options.replica = true;
        else if (arg == "--require-embedding-prefix")
            options.require_embedding_prefix = true;
        else if (arg == "--seed")
            options.seed = flag_number<std::uint64_t>(arg, value());
        else if (arg == "--werror")
            options.werror = true;
        else if (arg == "--format")
            options.format = value();
        else if (arg == "--fix")
            options.fix = true;
        else if (arg == "--baseline")
            options.baseline_path = value();
        else if (arg == "--write-baseline")
            options.write_baseline_path = value();
        else if (arg == "--rules") {
            for (const auto &rule : lint::rule_catalog())
                std::printf("%-18s %-8s %s\n", rule.id.c_str(),
                            lint::severity_name(rule.severity),
                            rule.summary.c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            print_lint_usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            elv::fatal("unknown lint option: " + arg);
        } else {
            options.files.push_back(arg);
        }
    }
    if (options.files.empty() && !options.builtin)
        elv::fatal("lint needs circuit files or --builtin");
    if (options.format != "text" && options.format != "json" &&
        options.format != "sarif")
        elv::fatal("--format must be text, json or sarif");
    if (options.fix && options.files.empty())
        elv::fatal("--fix rewrites circuit files; none given");

    std::optional<dev::Device> device;
    lint::LintOptions lint_options;
    if (!options.device.empty()) {
        device.emplace(dev::make_device(options.device));
        lint_options.device = &*device;
    }
    lint_options.expect_clifford_replica = options.replica;
    lint_options.require_embedding_prefix =
        options.require_embedding_prefix;

    std::vector<lint::ArtifactReport> reports;
    for (const auto &path : options.files) {
        const std::optional<std::string> text = elv::read_file(path);
        if (!text)
            elv::fatal("cannot read " + path);
        // A file that cannot even deserialize (bad qubit index, duplicate
        // measurement, ...) is reported as a parse diagnostic against the
        // file rather than aborting the whole lint run.
        circ::Circuit c;
        try {
            c = circ::from_text(*text);
        } catch (const std::exception &e) {
            lint::Report parse;
            parse.add(lint::Severity::Error, "parse", -1, e.what());
            reports.push_back({path, parse});
            continue;
        }
        if (options.fix) {
            const lint::FixResult fixed = lint::elide_dead_structure(c);
            if (fixed.ops_elided > 0) {
                // tmp + rename: a failed write leaves the source intact.
                if (!elv::write_file_atomic(path,
                                            circ::to_text(fixed.circuit)))
                    elv::fatal("cannot write " + path);
                if (options.format == "text")
                    std::printf("  %-40s fixed: %zu op(s), %zu "
                                "param slot(s) elided\n",
                                path.c_str(), fixed.ops_elided,
                                fixed.params_elided);
                c = fixed.circuit;
            }
        }
        reports.push_back({path, lint::lint_circuit(c, lint_options)});
    }
    if (options.builtin)
        lint_builtin(options, reports);

    if (!options.write_baseline_path.empty()) {
        if (!elv::write_file(options.write_baseline_path,
                             lint::Baseline::render(reports)))
            elv::fatal("cannot write " + options.write_baseline_path);
        std::printf("baseline written to %s\n",
                    options.write_baseline_path.c_str());
        return 0;
    }

    lint::Baseline baseline;
    const bool have_baseline = !options.baseline_path.empty();
    if (have_baseline)
        baseline = lint::Baseline::load(options.baseline_path);
    const lint::Baseline *suppress =
        have_baseline ? &baseline : nullptr;
    const lint::FindingCounts counts =
        lint::count_findings(reports, suppress);

    if (options.format == "sarif") {
        std::printf("%s\n", lint::to_sarif(reports, suppress).c_str());
    } else if (options.format == "json") {
        std::printf("%s\n", lint::to_json(reports, suppress).c_str());
    } else {
        for (const auto &entry : reports)
            print_artifact_text(entry);
        if (counts.suppressed > 0)
            std::printf("lint: %zu finding(s) suppressed by baseline\n",
                        counts.suppressed);
    }

    const bool failed =
        counts.errors > 0 || (options.werror && counts.warnings > 0);
    if (options.format == "text") {
        if (failed)
            std::printf("lint: %zu error(s), %zu warning(s)%s\n",
                        counts.errors, counts.warnings,
                        options.werror ? " (werror)" : "");
        else
            std::printf("lint: ok\n");
    }
    return failed ? 1 : 0;
}

/**
 * Deterministic hexfloat ranking dump. Byte-identical for the same
 * spec at any worker count — the CI dist-smoke job `cmp`s the serial
 * and distributed files.
 */
void
write_ranking(const std::string &path,
              const elv::core::SearchResult &found)
{
    std::ostringstream out;
    out << "elv-ranking 1\n";
    for (std::size_t n = 0; n < found.candidates.size(); ++n) {
        const auto &record = found.candidates[n];
        out << "cand " << n << " "
            << elv::core::double_to_hex(record.score) << " "
            << elv::core::double_to_hex(record.cnr) << " "
            << elv::core::double_to_hex(record.repcap) << " "
            << (record.rejected_by_cnr ? 1 : 0) << "\n";
    }
    out << "best " << elv::core::double_to_hex(found.best_score)
        << "\n";
    out << "survivors " << found.survivors << "\n";
    out << "executions " << found.total_executions() << "\n";
    if (!elv::write_file(path, out.str()))
        elv::fatal("cannot write " + path);
}

/** Options for the client subcommands (submit/status/...). */
struct ClientCliOptions
{
    std::string host = "127.0.0.1";
    int port = 7421;
    std::string id;
    elv::core::RunSpec spec;
    /** submit only: stream status until terminal after submitting. */
    bool watch_after = false;
    /** events only: paging cursor and clip. */
    std::uint64_t since = 0;
    std::uint64_t limit = 64;
};

void
print_client_usage()
{
    std::printf(
        "usage: elivagar_cli submit|status|cancel|result|watch|"
        "health|metrics|events [options]\n"
        "  --host A           server address (default 127.0.0.1)\n"
        "  --port N           server port (default 7421)\n"
        "  --id job-N         job id (status/cancel/result/watch)\n"
        "submit options: the one-shot run's spec flags and defaults\n"
        "  (--benchmark --device --candidates --seed --scale\n"
        "  --deadline-sec --workers), plus\n"
        "  --priority N       admission priority\n"
        "  --watch            stream status until the job finishes\n"
        "events options:\n"
        "  --since S          only events with seq > S (default 0)\n"
        "  --limit N          newest-clipped page size (default 64)\n"
        "`status` without --id lists every job the server knows.\n");
}

/** True when the response says ok; always prints the response line. */
bool
print_response(const std::string &response)
{
    std::printf("%s\n", response.c_str());
    elv::obs::JsonValue value;
    std::string error;
    if (!elv::obs::json_parse(response, value, error))
        return false;
    const elv::obs::JsonValue *ok = value.get("ok");
    return ok && ok->as_bool(false);
}

/**
 * Stream status lines for `id` until it reaches a terminal state.
 *
 * A dropped connection (server restart, network blip) is transient:
 * the watch reconnects with bounded full-jitter backoff and resumes —
 * the server re-sends the current status on re-watch, so nothing is
 * missed. Only a server that *refuses* the watch (unknown job) or
 * `max_attempts` consecutive failed reconnects end the command.
 */
int
watch_until_terminal(const std::string &host, std::uint16_t port,
                     const std::string &id)
{
    elv::RetryPolicy policy;
    policy.max_attempts = 6;
    policy.initial_backoff_ms = 200.0;
    policy.max_backoff_ms = 5000.0;
    elv::Rng rng(0x3a7c0u ^ static_cast<std::uint64_t>(port));
    int consecutive_failures = 0;

    for (;;) {
        std::string error;
        elv::srv::Client client(host, port, error);
        bool watching = false;
        if (client.connected() &&
            client.send_line(elv::srv::make_watch_request(id), error)) {
            std::string line;
            if (client.read_line(line, error)) { // the {"ok":...} ack
                if (!print_response(line))
                    return 1; // refused: unknown job — not transient
                watching = true;
                consecutive_failures = 0;
                while (client.read_line(line, error)) {
                    std::printf("%s\n", line.c_str());
                    std::fflush(stdout);
                    elv::obs::JsonValue value;
                    std::string parse_error;
                    if (!elv::obs::json_parse(line, value, parse_error))
                        continue;
                    const elv::obs::JsonValue *state =
                        value.get("state");
                    if (!state || !state->is_string())
                        continue;
                    const auto parsed =
                        elv::srv::job_state_from_name(state->text);
                    if (parsed && elv::srv::job_state_terminal(*parsed))
                        return *parsed == elv::srv::JobState::Completed
                                   ? 0
                                   : 2;
                }
            }
        }
        ++consecutive_failures;
        if (consecutive_failures >= policy.max_attempts)
            elv::fatal("watch: giving up after " +
                       std::to_string(consecutive_failures) +
                       " attempts: " +
                       (error.empty() ? "connection lost" : error));
        const double delay_ms =
            policy.backoff_delay_ms(consecutive_failures - 1, rng);
        std::fprintf(stderr,
                     "watch: %s (%s); reconnecting in %.0f ms "
                     "(attempt %d/%d)\n",
                     watching ? "stream interrupted"
                              : "connection failed",
                     error.empty() ? "connection lost" : error.c_str(),
                     delay_ms, consecutive_failures + 1,
                     policy.max_attempts);
        std::this_thread::sleep_for(std::chrono::duration<double,
                                                          std::milli>(
            delay_ms));
    }
}

int
run_client(int argc, char **argv)
{
    using namespace elv;

    const std::string op = argv[1];
    ClientCliOptions options;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                elv::fatal("missing value for " + arg);
            return argv[++i];
        };
        if (parse_spec_flag(arg, value, options.spec))
            continue;
        if (arg == "--host")
            options.host = value();
        else if (arg == "--port")
            options.port = flag_number(arg, value(), 1, 65535);
        else if (arg == "--id")
            options.id = value();
        else if (arg == "--priority")
            options.spec.priority = flag_number<int>(arg, value());
        else if (arg == "--watch")
            options.watch_after = true;
        else if (arg == "--since")
            options.since = flag_number<std::uint64_t>(arg, value());
        else if (arg == "--limit")
            options.limit = flag_number<std::uint64_t>(arg, value());
        else if (arg == "--help" || arg == "-h") {
            print_client_usage();
            return 0;
        } else {
            elv::fatal("unknown client option: " + arg);
        }
    }
    options.spec.check();

    std::string error;
    srv::Client client(options.host,
                       static_cast<std::uint16_t>(options.port), error);
    if (!client.connected())
        elv::fatal("cannot connect to " + options.host + ":" +
                   std::to_string(options.port) + ": " + error);

    auto roundtrip = [&](const std::string &request) -> int {
        std::string response;
        if (!client.request(request, response, error))
            elv::fatal("request failed: " + error);
        return print_response(response) ? 0 : 1;
    };
    auto require_id = [&]() {
        if (options.id.empty())
            elv::fatal(op + " needs --id job-N");
    };

    if (op == "submit") {
        std::string response;
        if (!client.request(srv::make_submit_request(options.spec),
                            response, error))
            elv::fatal("request failed: " + error);
        if (!print_response(response))
            return 1;
        if (!options.watch_after)
            return 0;
        obs::JsonValue value;
        std::string parse_error;
        if (!obs::json_parse(response, value, parse_error))
            return 1;
        const obs::JsonValue *id = value.get("id");
        if (!id || !id->is_string())
            return 1;
        return watch_until_terminal(
            options.host, static_cast<std::uint16_t>(options.port),
            id->text);
    }
    if (op == "status")
        return roundtrip(options.id.empty()
                             ? srv::make_jobs_request()
                             : srv::make_status_request(options.id));
    if (op == "cancel") {
        require_id();
        return roundtrip(srv::make_cancel_request(options.id));
    }
    if (op == "result") {
        require_id();
        return roundtrip(srv::make_result_request(options.id));
    }
    if (op == "watch") {
        require_id();
        return watch_until_terminal(
            options.host, static_cast<std::uint16_t>(options.port),
            options.id);
    }
    if (op == "health")
        return roundtrip(srv::make_health_request());
    if (op == "metrics")
        return roundtrip(srv::make_metrics_request());
    if (op == "events")
        return roundtrip(srv::make_events_request(
            options.since,
            static_cast<std::size_t>(options.limit)));
    elv::fatal("unknown client subcommand: " + op);
    return 1;
}

bool
is_client_op(const char *arg)
{
    for (const char *op : {"submit", "status", "cancel", "result",
                           "watch", "health", "metrics", "events"})
        if (std::strcmp(arg, op) == 0)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && is_client_op(argv[1])) {
        try {
            return run_client(argc, argv);
        } catch (const elv::UsageError &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            print_client_usage();
            return 1;
        } catch (const std::exception &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            return 1;
        }
    }
    if (argc > 1 && std::strcmp(argv[1], "lint") == 0) {
        try {
            return run_lint(argc, argv);
        } catch (const elv::UsageError &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            print_lint_usage();
            return 1;
        } catch (const std::exception &error) {
            std::fprintf(stderr, "error: %s\n", error.what());
            return 1;
        }
    }
    using namespace elv;

    CliOptions options;
    try {
        if (!parse(argc, argv, options))
            return 0;

        const core::RunSpec &spec = options.spec;
        const qml::Benchmark bench =
            qml::make_benchmark(spec.benchmark, spec.seed, spec.scale);
        const dev::Device device = dev::make_device(spec.device);
        std::printf("benchmark %s (%zu train / %zu test), device %s\n",
                    bench.spec.name.c_str(), bench.train.size(),
                    bench.test.size(), device.name.c_str());

        // One spec for both paths, mapped as every front end maps it,
        // so journals and rankings are interchangeable with server jobs
        // and distributed runs.
        core::ElivagarConfig config = core::search_config(
            spec, bench.spec, options.threads, options.checkpoint);
        if (spec.deadline_sec > 0.0) {
            // Same cooperative-cancellation machinery the server uses
            // for per-job deadlines; the hooks are not fingerprinted,
            // so a journaled run resumes under a different budget.
            auto token = std::make_shared<CancelToken>();
            token->set_deadline_after(spec.deadline_sec);
            config.hooks.cancel = token;
        }

        // Tracing and metrics cover the search: they go live just before
        // elivagar_search and their artifacts are written as soon as it
        // returns, so the trace stays scoped to the phase/candidate
        // spans (training adds one fused-run span per sample). The
        // profile samples the whole run and is written at the end.
        auto write_profile = [&options] {
            if (!options.profile_path.empty() &&
                obs::Profiler::global().write_collapsed(
                    options.profile_path))
                std::printf("profile written to %s\n",
                            options.profile_path.c_str());
        };
        if (options.metrics)
            obs::Registry::global().set_enabled(true);
        if (!options.trace_path.empty())
            obs::Tracer::global().start();
        if (!options.profile_path.empty())
            obs::Profiler::global().start();

        const bool distributed =
            spec.workers > 0 || !options.attach.empty();
        core::SearchResult found;
        std::optional<dist::DistStats> dist_stats;
        if (distributed) {
            dist::DistConfig dc;
            dc.workers = spec.workers;
            dc.attach = options.attach;
            dc.worker_binary = options.worker_bin;
            dc.threads_per_worker = std::max(1, options.threads);
            dc.coordinator_threads = options.threads;
            dc.checkpoint_path = options.checkpoint;
            dc.crash_after = options.dist_test_crash;
            dc.hooks = config.hooks;
            const dist::DistResult dr =
                dist::distributed_search(spec, dc);
            found = dr.result;
            dist_stats = dr.stats;
        } else {
            found = core::elivagar_search(device, bench.train, config);
        }
        std::printf("search: %d survivors of %d candidates, score "
                    "%.3f, %llu executions%s\n",
                    found.survivors, spec.candidates,
                    found.best_score,
                    static_cast<unsigned long long>(
                        found.total_executions()),
                    found.resumed ? " (resumed from checkpoint)" : "");
        if (dist_stats)
            std::printf(
                "dist: %d shard-stage(s) over %d worker(s) "
                "(%d spawned, %d attached), %llu records streamed, "
                "%d reissue(s), %llu local fallback(s)\n",
                dist_stats->shards,
                spec.workers + static_cast<int>(options.attach.size()),
                dist_stats->workers_spawned,
                dist_stats->workers_attached,
                static_cast<unsigned long long>(
                    dist_stats->records_received),
                dist_stats->shards_reissued,
                static_cast<unsigned long long>(
                    dist_stats->fallback_records));

        if (!options.trace_path.empty() &&
            obs::Tracer::global().write(options.trace_path))
            std::printf("trace written to %s\n",
                        options.trace_path.c_str());
        if (!options.report_path.empty() &&
            core::write_run_report(options.report_path, config, found))
            std::printf("run report written to %s\n",
                        options.report_path.c_str());
        if (options.metrics) {
            const auto snap = obs::Registry::global().snapshot();
            std::printf("metrics:\n");
            for (const auto &counter : snap.counters)
                std::printf("  %-24s %llu\n", counter.name.c_str(),
                            static_cast<unsigned long long>(
                                counter.value));
            for (const auto &gauge : snap.gauges)
                std::printf("  %-24s %lld (max %lld)\n",
                            gauge.name.c_str(),
                            static_cast<long long>(gauge.value),
                            static_cast<long long>(gauge.max));
            for (const auto &hist : snap.histograms) {
                std::uint64_t total = 0;
                for (std::uint64_t count : hist.counts)
                    total += count;
                std::printf("  %-24s %llu observations\n",
                            hist.name.c_str(),
                            static_cast<unsigned long long>(total));
            }
        }

        if (!options.dump_ranking.empty()) {
            write_ranking(options.dump_ranking, found);
            std::printf("ranking written to %s\n",
                        options.dump_ranking.c_str());
        }
        if (options.search_only) {
            write_profile();
            return 0;
        }

        qml::TrainConfig tc;
        tc.epochs = options.epochs;
        tc.threads = options.threads;
        tc.seed = spec.seed + 1;
        const auto trained =
            qml::train_circuit(found.best_circuit, bench.train, tc);

        const auto ideal =
            qml::evaluate(found.best_circuit, trained.params, bench.test);
        const noise::NoisyDensitySimulator noisy(device);
        const auto hw = qml::evaluate(
            found.best_circuit, trained.params, bench.test,
            [&noisy](const circ::Circuit &c,
                     const std::vector<double> &p,
                     const std::vector<double> &x) {
                return noisy.run_distribution(c, p, x);
            });
        std::printf("accuracy: %.1f%% noiseless / %.1f%% noisy\n",
                    100 * ideal.accuracy, 100 * hw.accuracy);
        write_profile();

        if (options.emit == "text") {
            std::printf("%s", circ::to_text(found.best_circuit).c_str());
        } else if (options.emit == "qasm") {
            std::vector<double> zeros(
                static_cast<std::size_t>(std::max(
                    1, found.best_circuit.num_data_features())),
                0.0);
            std::printf("%s", circ::to_qasm(found.best_circuit,
                                            trained.params, zeros)
                                  .c_str());
        }
        return 0;
    } catch (const CancelledError &error) {
        std::fprintf(stderr, "search cancelled: %s\n", error.what());
        if (!options.checkpoint.empty())
            std::fprintf(stderr,
                         "completed stages are journaled in %s; "
                         "re-running resumes there\n",
                         options.checkpoint.c_str());
        return 3;
    } catch (const UsageError &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        print_usage();
        return 1;
    } catch (const std::exception &error) {
        // e.g. a broken internal invariant (InternalError).
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
