/**
 * @file
 * The Elivagar search pipeline (Sec. 3, Fig. 4):
 *
 *   1. generate device- and noise-aware candidates (Algorithm 1);
 *   2. compute Clifford noise resilience for each candidate;
 *   3. reject candidates below the CNR threshold or outside the top
 *      keep-fraction;
 *   4. compute representational capacity for the survivors;
 *   5. rank by the composite score CNR^alpha * RepCap and return the
 *      best circuit.
 *
 * Every stage tallies its circuit executions so the Table 4 resource
 * comparison is measured from the same code path.
 *
 * Crash safety: CNR/RepCap evaluations draw from per-candidate seeded
 * RNG streams, so evaluations are order-independent and a search that
 * is killed or cancelled resumes from its checkpoint journal
 * (ElivagarConfig::checkpoint_path) to a bit-identical ranking.
 *
 * Parallelism: candidate generation, CNR and RepCap fan out over a
 * work-stealing thread pool (ElivagarConfig::threads). The result is
 * bit-identical for every thread count: each candidate owns its seeded
 * RNG streams, its backend and its journal records, and per-candidate
 * tallies are merged in candidate-index order. Journal writes are
 * serialized through a single mutex-guarded writer, keeping
 * crash-resume valid under concurrency (see DESIGN.md, "Parallel
 * execution model").
 *
 * Every search runs through this one function: a distributed run
 * (dist::distributed_search) is this function with a RemoteStages that
 * evaluates the CNR and RepCap stages on worker processes, so it
 * shares the journal, the phases and the ranking code.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "core/candidate_gen.hpp"
#include "core/cnr.hpp"
#include "core/repcap.hpp"
#include "device/device.hpp"
#include "qml/dataset.hpp"

namespace elv::core {

/**
 * Runtime observation/control hooks. None of these fields affect search
 * *results* — they only let a controller abort or watch a run — so they
 * are excluded from config_fingerprint and a journaled search resumes
 * under different hooks (e.g. a fresh deadline after a crash).
 */
struct SearchHooks
{
    /**
     * Cooperative cancellation: polled at phase boundaries and at every
     * per-candidate task, from worker threads. A tripped token unwinds
     * elivagar_search with CancelledError; completed stages stay in the
     * checkpoint journal, so a cancelled run resumes where it stopped.
     */
    std::shared_ptr<const elv::CancelToken> cancel;
    /**
     * Progress events: called as `progress(phase, done, total)` once
     * when a phase starts (done = 0) and after each completed
     * per-candidate task. Invoked concurrently from pool workers; the
     * callback must be thread-safe and cheap.
     */
    std::function<void(const char *phase, std::size_t done,
                       std::size_t total)>
        progress;
};

/** Full Elivagar configuration. */
struct ElivagarConfig
{
    /** Candidate pool size. */
    int num_candidates = 64;
    /** Circuit shape (Algorithm 1 inputs). */
    CandidateConfig candidate;
    /** CNR evaluation settings. */
    CnrOptions cnr;
    /** RepCap evaluation settings. */
    RepCapOptions repcap;
    /** Reject candidates with CNR below this threshold (Sec. 5.3). */
    double cnr_threshold = 0.7;
    /** Keep at most this fraction of candidates after CNR ranking. */
    double keep_fraction = 0.5;
    /** Composite-score exponent alpha_CNR (Eq. 7). */
    double alpha_cnr = 0.5;
    /** Skip CNR entirely (the "RepCap only" ablation of Fig. 9). */
    bool use_cnr = true;
    /** Search seed. */
    std::uint64_t seed = 0;
    /**
     * Worker threads for generation/CNR/RepCap (1 = run serially on the
     * calling thread, 0 = one per hardware thread). Any value yields
     * bit-identical results; excluded from config_fingerprint so a
     * checkpointed run can resume under a different thread count.
     */
    int threads = 1;
    /**
     * Checkpoint journal path; "" disables journaling. When the file
     * already exists (same configuration fingerprint), the search
     * resumes from it: journaled candidates keep their recorded
     * values and only the remainder is evaluated. Not fingerprinted.
     */
    std::string checkpoint_path;
    /** Cancellation + progress observation (not fingerprinted). */
    SearchHooks hooks;
};

/** @name Frozen-benchmark shims
 * perfbench/src/pipeline.cpp, which BENCHMARK.json freezes, still
 * spells names of the deleted fault layer (FaultConfig, the degraded
 * and retries tallies). These keep it compiling until the next change
 * to the benchmark, which deletes them. Nothing else may use them: the
 * fields are always false or 0, and the tag carries nothing.
 * @{ */
struct FaultTag
{
};
struct DegradedFields
{
    bool degraded = false;
    std::uint64_t retries = 0;
};
struct DegradedCount
{
    int degraded_candidates = 0;
};
inline FaultTag
prepare_fault_config(const ElivagarConfig &)
{
    return {};
}
struct CandidateCnr;
/** Forwards to the four-argument evaluate_candidate_cnr. */
CandidateCnr evaluate_candidate_cnr(const dev::Device &device,
                                    const circ::Circuit &circuit,
                                    const ElivagarConfig &config,
                                    FaultTag, std::size_t index);
/** @} */

/** Per-candidate diagnostics. */
struct CandidateRecord : DegradedFields
{
    circ::Circuit circuit;
    double cnr = 1.0;
    double repcap = 0.0;
    double score = 0.0;
    bool rejected_by_cnr = false;
};

/** Wall-clock spent in one pipeline phase (observability rollup). */
struct PhaseTiming
{
    /** Phase name: "generate", "cnr", "repcap" or "rank". */
    std::string name;
    /** Real seconds spent in the phase (timings vary, values don't). */
    double seconds = 0.0;
};

/** Search output: the chosen circuit plus bookkeeping. */
struct SearchResult : DegradedCount
{
    circ::Circuit best_circuit;
    double best_score = 0.0;
    std::vector<CandidateRecord> candidates;
    /** Candidates surviving the CNR filter. */
    int survivors = 0;
    /** Device-style circuit executions spent on CNR. */
    std::uint64_t cnr_executions = 0;
    /** Circuit executions spent on RepCap. */
    std::uint64_t repcap_executions = 0;
    /** True when journaled stages were replayed from a checkpoint. */
    bool resumed = false;
    /** Per-phase wall-clock breakdown, in pipeline order. */
    std::vector<PhaseTiming> phase_timings;
    /** End-to-end wall-clock of elivagar_search (seconds). */
    double total_seconds = 0.0;

    std::uint64_t
    total_executions() const
    {
        return cnr_executions + repcap_executions;
    }

    /** Wall-clock of one phase by name (0 when absent). */
    double
    phase_seconds(const std::string &name) const
    {
        for (const PhaseTiming &phase : phase_timings)
            if (phase.name == name)
                return phase.seconds;
        return 0.0;
    }
};

/**
 * Fingerprint of the configuration fields that determine search
 * results. `threads`, `checkpoint_path` and the hooks are excluded:
 * they never change results, so a journal written at one thread count
 * resumes at any other.
 */
std::uint64_t config_fingerprint(const ElivagarConfig &config);

/**
 * Best-effort guess at which configuration field changed between
 * `config` and a journal stamped with fingerprint `stored`: single
 * enumerable-field mutations of `config` (use_cnr, backend, noise
 * awareness, dead-structure pruning) are fingerprinted and the one
 * matching `stored` is reported. "" when no single-field change explains the
 * difference. Feed into SearchJournal::set_mismatch_hint so the
 * refusing-to-resume message names the likely culprit.
 */
std::string fingerprint_mismatch_hint(const ElivagarConfig &config,
                                      std::uint64_t stored);

/** @name Per-candidate stage evaluators
 * The exact code elivagar_search runs for one candidate, exposed so
 * out-of-process shard workers (src/dist) compute bit-identical
 * values: every stage seeds its RNG from (config.seed, stage tag,
 * candidate index) alone, so evaluation order — and which process
 * evaluates — never changes a result.
 * @{ */

/** Step-1 generation of candidate `index` of the pool. */
circ::Circuit generate_search_candidate(const dev::Device &device,
                                        const ElivagarConfig &config,
                                        std::size_t index);

/** One candidate's CNR evaluation: value plus cost accounting. */
struct CandidateCnr : DegradedFields
{
    double cnr = 0.0;
    std::uint64_t executions = 0;
};

/** Step-2 CNR of candidate `index` (circuit from step 1). */
CandidateCnr evaluate_candidate_cnr(const dev::Device &device,
                                    const circ::Circuit &circuit,
                                    const ElivagarConfig &config,
                                    std::size_t index);

/** One candidate's RepCap evaluation: value plus cost accounting. */
struct CandidateRepCap
{
    double repcap = 0.0;
    std::uint64_t executions = 0;
};

/** Step-4 RepCap of candidate `index`. */
CandidateRepCap evaluate_candidate_repcap(const circ::Circuit &circuit,
                                          const qml::Dataset &train,
                                          const ElivagarConfig &config,
                                          std::size_t index);

/**
 * Step-3 rejection over the records' cnr fields: below cnr_threshold
 * or outside the top keep_fraction by CNR rank. Never rejects
 * everything — the single most resilient candidate always survives.
 */
void apply_cnr_selection(std::vector<CandidateRecord> &candidates,
                         const ElivagarConfig &config);

/** Step-5 composite score CNR^alpha * RepCap (Eq. 7). */
double composite_score(double cnr, double repcap,
                       const ElivagarConfig &config);

/** @} */

/**
 * Somewhere else to evaluate the CNR and RepCap stages (src/dist
 * scatters them over worker processes). For each stage the search
 * passes the pending indices, ascending: every candidate the stage
 * needs that the journal did not replay. The stage evaluates any of
 * them with evaluate_candidate_cnr / evaluate_candidate_repcap and
 * hands each value to `store(n, value)`, which fills record n, journals
 * it and reports progress. `store` may be called from any thread, at
 * most once per index, and must not be called after the method
 * returns. The method returns the pending indices it did not store;
 * the search evaluates those with its own pool.
 */
class RemoteStages
{
  public:
    using CnrStore = std::function<void(int, const CandidateCnr &)>;
    using RepCapStore = std::function<void(int, const CandidateRepCap &)>;

    virtual ~RemoteStages() = default;
    virtual std::vector<int> cnr(const std::vector<int> &pending,
                                 const CnrStore &store) = 0;
    virtual std::vector<int> repcap(const std::vector<int> &pending,
                                    const RepCapStore &store) = 0;
};

/**
 * Run the Elivagar search for the QML task given by `train` on
 * `device`. The returned circuit is hardware-native (physical qubit
 * labels, coupled 2-qubit gates) and untrained; train it with
 * qml::train_circuit. With `remote`, the CNR and RepCap stages go
 * through it first; the ranking is bit-identical either way.
 */
SearchResult elivagar_search(const dev::Device &device,
                             const qml::Dataset &train,
                             const ElivagarConfig &config,
                             RemoteStages *remote = nullptr);

} // namespace elv::core
