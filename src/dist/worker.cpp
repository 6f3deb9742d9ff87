#include "dist/worker.hpp"

#include <atomic>
#include <csignal>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include <unistd.h>

#include "common/line_io.hpp"
#include "common/logging.hpp"
#include "common/record_log.hpp"
#include "dist/wire.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "qml/synthetic.hpp"

namespace elv::dist {

namespace {

/** The worker's configured search: everything a stage request needs. */
struct WorkerSearch
{
    dev::Device device;
    qml::Benchmark bench;
    core::ElivagarConfig config;
    /** Candidates regenerated lazily, cached across stage requests. */
    std::vector<std::optional<circ::Circuit>> circuits;
    /** SIGKILL self after this many emitted records (test hook). */
    int crash_after = 0;
};

/**
 * Build the search from a configure request. Throws UsageError for
 * unknown catalog names (reported to the coordinator as an error
 * event by the caller).
 */
WorkerSearch
configure_search(const CoordRequest &request)
{
    WorkerSearch search{
        dev::make_device(request.spec.device),
        qml::make_benchmark(request.spec.benchmark, request.spec.seed,
                            request.spec.scale),
        {},
        {},
        request.crash_after,
    };
    // The one spec -> config mapping every front end uses; both sides
    // deriving it independently is what the fingerprint handshake
    // verifies.
    search.config = core::search_config(
        request.spec, search.bench.spec,
        request.threads < 1 ? 1 : request.threads, "");
    search.circuits.resize(
        static_cast<std::size_t>(search.config.num_candidates));
    return search;
}

/** Candidate `index`, regenerated on first use. */
const circ::Circuit &
circuit_for(WorkerSearch &search, int index)
{
    auto &slot = search.circuits[static_cast<std::size_t>(index)];
    if (!slot)
        slot = core::generate_search_candidate(
            search.device, search.config,
            static_cast<std::size_t>(index));
    return *slot;
}

/** Write one event line; false when the coordinator went away. */
bool
send_event(int fd, const std::string &line)
{
    std::string error;
    return write_line(fd, line, error);
}

/** Serialized record emission with the crash_after test hook. */
class RecordSink
{
  public:
    RecordSink(int out_fd, int crash_after)
        : out_fd_(out_fd), crash_after_(crash_after)
    {
    }

    /** Emit one record line; false when the coordinator went away. */
    bool
    emit(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!send_event(out_fd_, line))
            return false;
        ++emitted_;
        if (crash_after_ > 0 && emitted_ >= crash_after_) {
            // The reissue test hook: die the hard way, mid-shard,
            // exactly like a worker OOM-killed by the kernel.
            ::kill(::getpid(), SIGKILL);
        }
        return true;
    }

  private:
    int out_fd_;
    std::mutex mutex_;
    int emitted_ = 0;
    int crash_after_ = 0;
};

/**
 * Evaluate one stage request and stream its records. Returns false
 * when the transport died (the conversation is over either way).
 */
bool
run_stage(WorkerSearch &search, const CoordRequest &request,
          RecordSink &sink, int out_fd)
{
    const bool is_cnr = request.stage == "cnr";
    ELV_METRIC_COUNT_N("dist.worker.requests", 1);
    // Check before touching anything: a bad index is a coordinator
    // bug, reported instead of crashing the worker. A repeated one
    // would have two tasks fill the same lazily built circuit slot.
    std::vector<bool> seen(
        static_cast<std::size_t>(search.config.num_candidates));
    for (int index : request.indices) {
        const char *problem = nullptr;
        if (index < 0 || index >= search.config.num_candidates)
            problem = " out of range";
        else if (seen[static_cast<std::size_t>(index)])
            problem = " repeated";
        if (problem) {
            send_event(out_fd, make_error("candidate index " +
                                          std::to_string(index) +
                                          problem));
            return send_event(out_fd, make_stage_done(request.stage, 0));
        }
        seen[static_cast<std::size_t>(index)] = true;
    }
    std::atomic<bool> transport_ok{true};
    par::ThreadPool pool(search.config.threads);
    pool.parallel_for(request.indices.size(), [&](std::size_t k) {
        if (!transport_ok.load(std::memory_order_relaxed))
            return;
        const int index = request.indices[k];
        std::string line;
        if (is_cnr) {
            const core::CandidateCnr cnr = core::evaluate_candidate_cnr(
                search.device, circuit_for(search, index),
                search.config, static_cast<std::size_t>(index));
            line = make_cnr_record(index, cnr);
        } else {
            const core::CandidateRepCap repcap =
                core::evaluate_candidate_repcap(
                    circuit_for(search, index), search.bench.train,
                    search.config, static_cast<std::size_t>(index));
            line = make_repcap_record(index, repcap);
        }
        ELV_METRIC_COUNT_N("dist.worker.records", 1);
        if (!sink.emit(line))
            transport_ok.store(false, std::memory_order_relaxed);
    });
    if (!transport_ok.load())
        return false;
    return send_event(out_fd, make_stage_done(request.stage,
                                              request.indices.size()));
}

} // namespace

int
serve_worker(int in_fd, int out_fd)
{
    std::optional<WorkerSearch> search;
    std::optional<RecordSink> sink;
    LineReader reader(in_fd, kMaxLineBytes);
    std::string line, read_error;
    while (reader.read_line(line, read_error)) {
        if (line.empty())
            continue;
        CoordRequest request;
        std::string error;
        if (!parse_coord_request(line, request, error)) {
            send_event(out_fd, make_error("bad request: " + error));
            return 1;
        }
        switch (request.kind) {
        case CoordRequest::Kind::Configure: {
            try {
                search = configure_search(request);
            } catch (const std::exception &e) {
                send_event(out_fd, make_error(std::string("configure: ") +
                                              e.what()));
                return 1;
            }
            const std::uint64_t fingerprint =
                core::config_fingerprint(search->config);
            if (fingerprint != request.fingerprint) {
                // A worker from a different build / catalog would
                // contribute values from a different search; refuse
                // loudly rather than merge garbage.
                send_event(out_fd, make_error(
                    "config fingerprint mismatch: worker derives " +
                    fingerprint_to_hex(fingerprint) +
                    ", coordinator expects " +
                    fingerprint_to_hex(request.fingerprint)));
                return 1;
            }
            sink.emplace(out_fd, search->crash_after);
            if (!send_event(out_fd, make_ready(fingerprint)))
                return 1;
            break;
        }
        case CoordRequest::Kind::Stage: {
            if (!search || !sink) {
                send_event(out_fd,
                           make_error("stage request before configure"));
                return 1;
            }
            try {
                if (!run_stage(*search, request, *sink, out_fd))
                    return 1;
            } catch (const std::exception &e) {
                send_event(out_fd, make_error(
                    std::string("evaluation failed: ") + e.what()));
                return 1;
            }
            break;
        }
        case CoordRequest::Kind::Shutdown:
            send_event(out_fd, make_bye());
            return 0;
        }
    }
    // EOF without shutdown: the coordinator finished (or died); both
    // are clean ends from the worker's perspective.
    return 0;
}

} // namespace elv::dist
