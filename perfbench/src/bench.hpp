/**
 * @file
 * Shared pieces of the repository benchmark: options, the metric
 * report, in-memory spans, resource probes and ranking digests.
 *
 * A run drives one workload through the library's public entry points
 * and times each call from the outside. Untraced runs report the
 * end-to-end metrics; traced runs keep spans in memory (name, start,
 * end, parent, op id), write them when the run ends and report the
 * per-layer metrics. See perfbench/README.md.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/search.hpp"
#include "qml/synthetic.hpp"
#include "server/job.hpp"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes, for the benchmark's own tests. */
    bool smoke = false;
    /** Expected ranking digest of the first op ("" = no check). */
    std::string expect_digest;
    /** Directory for span files and server data (created on demand). */
    std::string out_dir = ".bench_build/out";
};

/** Wall-clock seconds since an arbitrary fixed origin. */
double now_s();

/** Process CPU seconds: this process, and reaped children. */
double self_cpu_s();
double children_cpu_s();

/** Peak resident set size of this process (MB). */
double peak_rss_mb();

/** Median / linear-interpolated quantile of a sample (NaN if empty). */
double quantile(std::vector<double> values, double q);
inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/**
 * FNV-1a digest (16 hex digits) of the ranking in the
 * `elivagar_cli --dump-ranking` text format: every candidate's score,
 * CNR, RepCap and rejection flag as hexfloats, then best score,
 * survivors and executions. Equal digests mean bit-identical rankings.
 */
std::string ranking_digest(const elv::core::SearchResult &result);

/**
 * Metrics of one run plus the op/failure accounting. Every metric is
 * printed as a `metric <name> <value> <unit>` line; the names listed in
 * `gated` also go into the final JSON line.
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** A metric that does not apply to this workload (printed only). */
    void not_applicable(const std::string &name, const std::string &unit,
                        const std::string &why);
    void info(const std::string &line);
    void op_ok() { ++attempted_; }
    /** An op (or an output check) failed. */
    void op_failed(const std::string &why);
    /** An output check failed for an op already counted. */
    void check_failed(const std::string &why);

    bool correct() const { return failed_ == 0; }

    /**
     * Print every line, then the JSON line with the `gated` metrics (a
     * gated metric that was never measured counts as a failed check).
     */
    void print(const std::vector<std::string> &gated);

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> lines_;
    std::uint64_t attempted_ = 0, failed_ = 0;
};

/**
 * In-memory span log for the traced run. Spans nest per thread; a
 * span's parent is the innermost open span of the recording thread.
 * With `enabled` false every call is a no-op, so untraced runs share
 * the code path without recording anything.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start_s = 0.0, end_s = 0.0;
        int parent = -1;
        std::uint64_t op = 0;
        int thread = 0;
        double seconds() const { return end_s - start_s; }
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** RAII span; the op id is inherited from the parent when 0. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const std::string &name, std::uint64_t op = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** Wall seconds of this span so far (works untraced too). */
        double elapsed() const { return now_s() - start_; }

      private:
        SpanLog &log_;
        int index_ = -1;
        double start_;
    };

    /** Durations of every span named `name`, in recording order. */
    std::vector<double> durations(const std::string &name) const;
    double total(const std::string &name) const;

    /**
     * Self seconds per layer: each span's duration minus its children's,
     * summed by layer (the name up to the first '.'; "bench" for the
     * benchmark's own grouping spans).
     */
    std::vector<std::pair<std::string, double>> self_by_layer() const;

    /** Write a Chrome trace (ph "X" events, args: op, parent). */
    bool write(const std::string &path) const;

  private:
    int begin(const std::string &name, std::uint64_t op, double start);
    void end(int index, double end);

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Per-workload search settings (one entry per workload name). */
struct WorkloadSpec
{
    /** Search spec (benchmark, device, candidates, seed, scale). */
    elv::srv::JobSpec job;
    /** In-process search/training threads. */
    int threads = 1;
    /** Training epochs of the pipeline (and of the qml probe). */
    int epochs = 1;
    /** Forked workers x threads each for distributed search. */
    int dist_workers = 2;
    int dist_threads = 1;
};

/** Dataset + device built from a spec: the workload's set-up. */
struct Setup
{
    elv::qml::Benchmark bench;
    elv::dev::Device device;
    double seconds = 0.0;
};
Setup make_setup(const elv::srv::JobSpec &job, SpanLog &spans);

/** Set up eleven times (spans recorded each time); keeps the last and
 *  appends each set-up time to `times`. */
Setup repeated_setup(const WorkloadSpec &spec, SpanLog &spans,
                     std::vector<double> &times);

/** The ElivagarConfig of `job` at `threads` (the server/CLI mapping). */
elv::core::ElivagarConfig search_config(const elv::srv::JobSpec &job,
                                        const Setup &setup, int threads);

/** Host/build provenance lines (nproc, CPU, kernel tier, build, git). */
void add_provenance(Report &report, const Options &options, int threads,
                    int clients);

/** @name Workloads (pipeline.cpp, service.cpp) @{ */
void run_pipeline(const Options &options, const WorkloadSpec &spec,
                  Report &report);
void run_dist(const Options &options, const WorkloadSpec &spec,
              Report &report);
void run_service(const Options &options, Report &report);
/** @} */

/** @name Layer probes shared by the traced runs (pipeline.cpp) @{ */

/**
 * Replay the search through the public per-candidate evaluators, one
 * span per call, serially; returns the replayed result so callers can
 * check it against elivagar_search.
 */
elv::core::SearchResult replay_search(const elv::dev::Device &device,
                                      const elv::qml::Dataset &train,
                                      const elv::core::ElivagarConfig &config,
                                      SpanLog &spans, Report &report);

/** Time NoisyProgram compile vs replay on every candidate's replicas. */
void noise_probe(const elv::dev::Device &device,
                 const elv::core::SearchResult &found,
                 const elv::core::ElivagarConfig &config, SpanLog &spans,
                 Report &report);

/** Train + evaluate `found.best_circuit` (spans qml.*); metrics qml.*. */
void qml_layer(const Setup &setup, const elv::core::SearchResult &found,
               const WorkloadSpec &spec, SpanLog &spans, Report &report);

/**
 * One job of `spec` through an in-process server over TCP loopback
 * (metrics server.*); returns the job's best_score_hex ("" on failure).
 */
std::string server_probe(const Options &options, const WorkloadSpec &spec,
                         SpanLog &spans, Report &report);

/** Distributed search of `spec` (metrics dist.*); returns the result. */
elv::core::SearchResult dist_layer(const WorkloadSpec &spec,
                                   SpanLog &spans, Report &report,
                                   double *wall_s = nullptr,
                                   double *cpu_s = nullptr);

/** Median set-up layer times over the recorded setup spans. */
void setup_layer_metrics(const SpanLog &spans, Report &report);

/**
 * parallel.search_cpu_eff = search CPU / (search wall x threads) and
 * parallel.search_speedup = the serial replay's summed per-candidate
 * spans / search wall, both over an untraced search.
 */
void parallel_metrics(const SpanLog &spans, double search_wall,
                      double search_cpu, int threads, Report &report);

/**
 * Record the first ranking seen (`first` empty) or count a failed check
 * when `digest` differs from it.
 */
void check_ranking(const elv::core::SearchResult &found,
                   const std::string &digest,
                   std::optional<std::string> &first,
                   const std::string &what, Report &report);

/** Count a failed check when --expect-digest is set and differs. */
void check_expected_digest(const Options &options,
                           const std::string &digest, Report &report);

/** Registry counters, self time per layer, and the span file. */
void finish_trace(const Options &options, const SpanLog &spans,
                  Report &report);
/** @} */

/** Names of the per-layer metrics (JSON line of traced runs). */
extern const std::vector<std::string> kPerLayerMetrics;
/** Names of the gated end-to-end metrics (JSON line of untraced runs). */
extern const std::vector<std::string> kEndToEndMetrics;

} // namespace perfbench
