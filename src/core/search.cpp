#include "core/search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>

#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace elv::core {

namespace {

/** Seconds elapsed since `start` (phase-timing rollups). */
double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** CNR-value histogram edges (scores live in [0, 1]). */
const std::vector<double> &
cnr_edges()
{
    static const std::vector<double> edges{0.1, 0.2, 0.3, 0.4, 0.5,
                                           0.6, 0.7, 0.8, 0.9, 1.0};
    return edges;
}

/**
 * RAII phase rollup: opens a "phase.<name>" trace span and, on exit,
 * appends the phase's wall-clock to the result's timing breakdown.
 */
class PhaseScope
{
  public:
    PhaseScope(const char *name, SearchResult &result)
        : name_(name), result_(result),
          span_(std::string("phase.") + name, "search"),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~PhaseScope()
    {
        result_.phase_timings.push_back({name_, seconds_since(start_)});
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    const char *name_;
    SearchResult &result_;
    obs::TraceScope span_;
    std::chrono::steady_clock::time_point start_;
};

/** splitmix64 finalizer — decorrelates structured seed inputs. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Independent RNG seed per (stage, candidate). Per-candidate streams
 * make evaluations order-independent, which is what lets a resumed
 * search skip journaled candidates yet reproduce the uninterrupted
 * run's remaining values bit-exactly.
 */
std::uint64_t
stage_seed(std::uint64_t seed, std::uint64_t stage, std::uint64_t index)
{
    return mix64(seed ^ mix64(stage) ^ mix64(index + 0x5eedULL));
}

/** Mix one value into an FNV-1a style fingerprint. */
void
fp_mix(std::uint64_t &h, std::uint64_t value)
{
    h ^= mix64(value);
    h *= 1099511628211ULL;
}

void
fp_mix_double(std::uint64_t &h, double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    fp_mix(h, bits);
}

} // namespace

std::uint64_t
config_fingerprint(const ElivagarConfig &config)
{
    std::uint64_t h = 1469598103934665603ULL;
    fp_mix(h, config.seed);
    fp_mix(h, static_cast<std::uint64_t>(config.num_candidates));
    fp_mix(h, static_cast<std::uint64_t>(config.candidate.num_qubits));
    fp_mix(h, static_cast<std::uint64_t>(config.candidate.num_params));
    fp_mix(h, static_cast<std::uint64_t>(config.candidate.num_embeds));
    fp_mix(h, static_cast<std::uint64_t>(config.candidate.num_meas));
    fp_mix(h, static_cast<std::uint64_t>(config.candidate.num_features));
    fp_mix(h, static_cast<std::uint64_t>(config.candidate.embedding));
    fp_mix(h, config.candidate.noise_aware ? 1 : 0);
    fp_mix(h, static_cast<std::uint64_t>(kSubgraphPool));
    fp_mix(h, static_cast<std::uint64_t>(config.cnr.num_replicas));
    fp_mix(h, static_cast<std::uint64_t>(config.cnr.backend));
    fp_mix(h, static_cast<std::uint64_t>(config.cnr.shots));
    fp_mix_double(h, config.cnr.noise_scale);
    // Former CNR/RepCap precision slots (f64 = 0): kept so journals
    // from older builds, in-process and distributed, still resume.
    fp_mix(h, 0);
    fp_mix(h, static_cast<std::uint64_t>(config.repcap.samples_per_class));
    fp_mix(h, static_cast<std::uint64_t>(config.repcap.param_inits));
    fp_mix(h, static_cast<std::uint64_t>(config.repcap.num_bases));
    fp_mix(h, 0);
    fp_mix_double(h, config.cnr_threshold);
    fp_mix_double(h, config.keep_fraction);
    fp_mix_double(h, config.alpha_cnr);
    fp_mix(h, config.use_cnr ? 1 : 0);
    return h;
}

std::string
fingerprint_mismatch_hint(const ElivagarConfig &config,
                          std::uint64_t stored)
{
    // Single enumerable-field mutations, most likely culprit first.
    struct Probe
    {
        const char *what;
        void (*mutate)(ElivagarConfig &);
    };
    static const Probe probes[] = {
        {"use_cnr was toggled (the RepCap-only ablation)",
         [](ElivagarConfig &c) { c.use_cnr = !c.use_cnr; }},
        {"the CNR backend changed (density vs stabilizer)",
         [](ElivagarConfig &c) {
             c.cnr.backend = c.cnr.backend == CnrBackend::Density
                                 ? CnrBackend::Stabilizer
                                 : CnrBackend::Density;
         }},
        {"noise-aware candidate generation was toggled",
         [](ElivagarConfig &c) {
             c.candidate.noise_aware = !c.candidate.noise_aware;
         }},
    };
    for (const Probe &probe : probes) {
        ElivagarConfig mutated = config;
        probe.mutate(mutated);
        if (config_fingerprint(mutated) == stored)
            return std::string("hint: ") + probe.what;
    }
    return "";
}

circ::Circuit
generate_search_candidate(const dev::Device &device,
                          const ElivagarConfig &config, std::size_t index)
{
    elv::Rng rng(stage_seed(config.seed, 0xe11a, index));
    return generate_candidate(device, config.candidate, rng);
}

CandidateCnr
evaluate_candidate_cnr(const dev::Device &device,
                       const circ::Circuit &circuit,
                       const ElivagarConfig &config, std::size_t index)
{
    elv::Rng rng(stage_seed(config.seed, 0xc14, index));
    const CnrResult cnr =
        clifford_noise_resilience(circuit, device, rng, config.cnr);
    CandidateCnr out;
    out.cnr = cnr.cnr;
    out.executions = cnr.circuit_executions;
    return out;
}

CandidateCnr
evaluate_candidate_cnr(const dev::Device &device,
                       const circ::Circuit &circuit,
                       const ElivagarConfig &config, FaultTag,
                       std::size_t index)
{
    return evaluate_candidate_cnr(device, circuit, config, index);
}

CandidateRepCap
evaluate_candidate_repcap(const circ::Circuit &circuit,
                          const qml::Dataset &train,
                          const ElivagarConfig &config, std::size_t index)
{
    elv::Rng rng(stage_seed(config.seed, 0x2e9ca9, index));
    const RepCapResult rc =
        representational_capacity(circuit, train, rng, config.repcap);
    return {rc.repcap, rc.circuit_executions};
}

void
apply_cnr_selection(std::vector<CandidateRecord> &candidates,
                    const ElivagarConfig &config)
{
    std::vector<double> cnrs;
    cnrs.reserve(candidates.size());
    for (const auto &record : candidates)
        cnrs.push_back(record.cnr);
    std::sort(cnrs.begin(), cnrs.end(), std::greater<>());
    const std::size_t keep_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::floor(config.keep_fraction *
                          static_cast<double>(candidates.size()))));
    const double rank_cutoff = cnrs[keep_count - 1];
    for (auto &record : candidates)
        record.rejected_by_cnr = record.cnr < config.cnr_threshold ||
                                 record.cnr < rank_cutoff;
    // Never reject everything: keep the single most resilient
    // candidate even when all CNRs fall below the threshold.
    if (std::all_of(
            candidates.begin(), candidates.end(),
            [](const CandidateRecord &r) { return r.rejected_by_cnr; })) {
        auto best = std::max_element(
            candidates.begin(), candidates.end(),
            [](const CandidateRecord &a, const CandidateRecord &b) {
                return a.cnr < b.cnr;
            });
        best->rejected_by_cnr = false;
    }
}

double
composite_score(double cnr, double repcap, const ElivagarConfig &config)
{
    return std::pow(std::max(cnr, 0.0), config.alpha_cnr) * repcap;
}

SearchResult
elivagar_search(const dev::Device &device, const qml::Dataset &train,
                const ElivagarConfig &config, RemoteStages *remote)
{
    ELV_REQUIRE(config.num_candidates >= 1, "need at least one candidate");
    ELV_REQUIRE(config.keep_fraction > 0.0 && config.keep_fraction <= 1.0,
                "bad keep fraction");
    ELV_REQUIRE(config.threads >= 0, "bad thread count");
    train.check();
    device.validate();
    if (config.candidate.num_qubits > device.num_qubits())
        elv::fatal("device " + device.name + " has " +
                   std::to_string(device.num_qubits()) +
                   " qubits but the benchmark needs " +
                   std::to_string(config.candidate.num_qubits));

    // Observability: one span covers the whole search; each pipeline
    // step below records a nested phase span plus a PhaseTiming rollup,
    // and candidate-level spans nest under the phases (args.i is the
    // candidate index).
    const auto search_start = std::chrono::steady_clock::now();
    ELV_TRACE_SCOPE("elivagar_search", "search");
    ELV_METRIC_COUNT_N("search.candidates",
                       static_cast<std::uint64_t>(config.num_candidates));

    SearchResult result;

    // Crash-safe journal: replay completed stages, append new ones.
    // All journal access from worker tasks goes through this mutex —
    // the journal is a single serialized writer, so records stay
    // untorn and the resume map is never mutated concurrently.
    std::unique_ptr<SearchJournal> journal;
    std::mutex journal_mutex;
    if (!config.checkpoint_path.empty()) {
        journal = std::make_unique<SearchJournal>(
            config.checkpoint_path, config_fingerprint(config));
        journal->set_mismatch_hint([&config](std::uint64_t stored) {
            return fingerprint_mismatch_hint(config, stored);
        });
        result.resumed = journal->load();
    }

    par::ThreadPool pool(config.threads);
    const auto pool_size =
        static_cast<std::size_t>(config.num_candidates);

    // Cooperative cancellation + progress. Checks run at phase
    // boundaries and at every per-candidate task; a tripped token
    // unwinds with CancelledError (the pool cancels queued tasks and
    // rethrows), leaving the journal valid for a later resume. The
    // progress callback fires from worker threads and must be
    // thread-safe; neither hook influences search values.
    const elv::CancelToken *cancel = config.hooks.cancel.get();
    auto check_cancel = [&](const char *where) {
        if (cancel)
            cancel->check(where);
    };
    std::atomic<std::size_t> phase_done{0};
    auto phase_begin = [&](const char *phase) {
        check_cancel(phase);
        phase_done.store(0, std::memory_order_relaxed);
        if (config.hooks.progress)
            config.hooks.progress(phase, 0, pool_size);
    };
    auto task_done = [&](const char *phase) {
        if (config.hooks.progress)
            config.hooks.progress(
                phase,
                phase_done.fetch_add(1, std::memory_order_relaxed) + 1,
                pool_size);
    };

    // Replays a journaled entry for candidate n, if present. The
    // returned pointer is stable (map node) and its fields are only
    // ever written by candidate n's own store, so reading it outside
    // the lock afterwards is race-free.
    auto journal_entry = [&](std::size_t n) -> const CheckpointEntry * {
        if (!journal)
            return nullptr;
        std::lock_guard<std::mutex> lock(journal_mutex);
        return journal->entry(static_cast<int>(n));
    };

    // Step 1: candidate generation. Cheap and fully deterministic in
    // the seed — one stream per candidate, so the pool is identical
    // for every thread count — and a resumed search regenerates the
    // pool and verifies it against the journal instead of trusting
    // the file blindly.
    result.candidates.resize(pool_size);
    {
        PhaseScope phase("generate", result);
        phase_begin("generate");
        pool.parallel_for(pool_size, [&](std::size_t n) {
            ELV_TRACE_SCOPE("generate", "search.candidate",
                            static_cast<std::int64_t>(n));
            check_cancel("generate");
            auto &record = result.candidates[n];
            record.circuit = generate_search_candidate(device, config, n);
            if (journal) {
                std::lock_guard<std::mutex> lock(journal_mutex);
                const CheckpointEntry *entry =
                    journal->entry(static_cast<int>(n));
                if (entry && !entry->circuit_line.empty()) {
                    if (entry->circuit_line !=
                        circ::to_text_line(record.circuit))
                        elv::fatal(
                            "journal " + config.checkpoint_path +
                            ": candidate " + std::to_string(n) +
                            " does not match the regenerated pool; the "
                            "journal belongs to a different run");
                } else {
                    journal->record_candidate(static_cast<int>(n),
                                              record.circuit);
                }
            }
            task_done("generate");
        });
    }

    // Step 2: CNR for every candidate (replayed from the journal where
    // possible; each candidate draws from its own seeded stream). The
    // pending rest goes to the remote stage first, if there is one;
    // whatever it hands back is evaluated on the pool. Execution
    // counts land in index-addressed slots and are summed below, in
    // candidate order.
    if (config.use_cnr) {
        PhaseScope phase("cnr", result);
        phase_begin("cnr");
        std::vector<std::uint64_t> cnr_execs(pool_size, 0);
        const RemoteStages::CnrStore store = [&](int index,
                                                 const CandidateCnr &cnr) {
            const auto n = static_cast<std::size_t>(index);
            result.candidates[n].cnr = cnr.cnr;
            cnr_execs[n] = cnr.executions;
            if (journal) {
                std::lock_guard<std::mutex> lock(journal_mutex);
                journal->record_cnr(index, cnr.cnr, cnr.executions);
            }
            task_done("cnr");
        };
        std::vector<int> pending;
        for (std::size_t n = 0; n < pool_size; ++n) {
            const CheckpointEntry *entry = journal_entry(n);
            if (entry && entry->has_cnr) {
                result.candidates[n].cnr = entry->cnr;
                cnr_execs[n] = entry->cnr_executions;
                task_done("cnr");
            } else {
                pending.push_back(static_cast<int>(n));
            }
        }
        if (remote && !pending.empty()) {
            pending = remote->cnr(pending, store);
            check_cancel("cnr");
        }
        pool.parallel_for(pending.size(), [&](std::size_t k) {
            const auto n = static_cast<std::size_t>(pending[k]);
            ELV_TRACE_SCOPE("cnr", "search.candidate",
                            static_cast<std::int64_t>(n));
            check_cancel("cnr");
            store(pending[k],
                  evaluate_candidate_cnr(device, result.candidates[n].circuit,
                                         config, n));
        });
        for (std::size_t n = 0; n < pool_size; ++n) {
            result.cnr_executions += cnr_execs[n];
            ELV_METRIC_OBSERVE("search.cnr", cnr_edges(),
                               result.candidates[n].cnr);
        }

        // Step 3: early rejection — below threshold or outside the top
        // keep_fraction.
        apply_cnr_selection(result.candidates, config);
    }

    // Step 4: RepCap for the survivors only (per-candidate streams,
    // replayed from the journal where possible).
    std::vector<std::uint64_t> repcap_execs(pool_size, 0);
    {
        PhaseScope phase("repcap", result);
        phase_begin("repcap");
        const RemoteStages::RepCapStore store =
            [&](int index, const CandidateRepCap &rc) {
                const auto n = static_cast<std::size_t>(index);
                result.candidates[n].repcap = rc.repcap;
                repcap_execs[n] = rc.executions;
                if (journal) {
                    std::lock_guard<std::mutex> lock(journal_mutex);
                    journal->record_repcap(index, rc.repcap,
                                           rc.executions);
                }
                task_done("repcap");
            };
        std::vector<int> pending;
        for (std::size_t n = 0; n < pool_size; ++n) {
            auto &record = result.candidates[n];
            const CheckpointEntry *entry = journal_entry(n);
            if (record.rejected_by_cnr) {
                task_done("repcap");
            } else if (entry && entry->has_repcap) {
                record.repcap = entry->repcap;
                repcap_execs[n] = entry->repcap_executions;
                task_done("repcap");
            } else {
                pending.push_back(static_cast<int>(n));
            }
        }
        if (remote && !pending.empty()) {
            pending = remote->repcap(pending, store);
            check_cancel("repcap");
        }
        pool.parallel_for(pending.size(), [&](std::size_t k) {
            const auto n = static_cast<std::size_t>(pending[k]);
            ELV_TRACE_SCOPE("repcap", "search.candidate",
                            static_cast<std::int64_t>(n));
            check_cancel("repcap");
            store(pending[k],
                  evaluate_candidate_repcap(result.candidates[n].circuit,
                                            train, config, n));
        });
        for (std::size_t n = 0; n < pool_size; ++n) {
            if (!result.candidates[n].rejected_by_cnr)
                ++result.survivors;
            result.repcap_executions += repcap_execs[n];
        }
    }

    // Step 5: composite score and final selection (Eq. 7).
    const CandidateRecord *best = nullptr;
    {
        PhaseScope phase("rank", result);
        phase_begin("rank");
        for (int n = 0; n < config.num_candidates; ++n) {
            auto &record =
                result.candidates[static_cast<std::size_t>(n)];
            if (record.rejected_by_cnr)
                continue;
            record.score =
                composite_score(record.cnr, record.repcap, config);
            if (!best || record.score > best->score)
                best = &record;
            if (journal)
                journal->record_rank(n, record.score,
                                     record.rejected_by_cnr);
        }
    }
    ELV_REQUIRE(best != nullptr, "no surviving candidate");
    result.best_circuit = best->circuit;
    result.best_score = best->score;
    result.total_seconds = seconds_since(search_start);
    return result;
}

} // namespace elv::core
