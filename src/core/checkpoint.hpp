/**
 * @file
 * Crash-safe journaling for the Elivagar search.
 *
 * The search appends one line per completed per-candidate stage to a
 * checkpoint file (flushed immediately, append-only), so a crash —
 * process kill, a tripped cancel token, a machine going down — loses
 * at most the stage in flight. A resumed search with the same
 * configuration replays the journal: already-evaluated candidates keep
 * their recorded CNR/RepCap values (and execution accounting),
 * unevaluated ones are computed, and because every stage draws from a
 * per-candidate seeded RNG the final ranking is bit-identical to an
 * uninterrupted run.
 *
 * The file is a common/record_log.hpp RecordLog (header
 * "elv-search-journal 2", a fingerprint of the search configuration,
 * checksummed records; a torn final record is dropped and that
 * candidate's stage re-runs). Record bodies, hexfloat for exact double
 * round-trips:
 *
 *   cand <idx> <escaped circuit>        # written after generation
 *   cnr <idx> <hexfloat> <execs> <degraded> <retries>
 *   repcap <idx> <hexfloat> <execs>
 *   rank <idx> <score hexfloat> <rejected>   # audit, not replayed
 *
 * The cnr record's <degraded> <retries> columns are always written as
 * "0 0". Older builds could write a CNR computed by a fallback backend
 * with <degraded> 1; such a record loads but leaves the stage pending,
 * so the candidate is evaluated again and its new record is appended
 * (a later record wins over earlier ones for the same candidate).
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "circuit/circuit.hpp"
#include "common/record_log.hpp"

namespace elv::core {

/** Journaled per-candidate evaluation state. */
struct CheckpointEntry
{
    /** Circuit text (single-line escaped form), "" until journaled. */
    std::string circuit_line;
    bool has_cnr = false;
    double cnr = 0.0;
    std::uint64_t cnr_executions = 0;
    bool has_repcap = false;
    double repcap = 0.0;
    std::uint64_t repcap_executions = 0;
};

/** Append-only search journal with resume support. */
class SearchJournal
{
  public:
    /**
     * @param path journal file (created on first record)
     * @param fingerprint configuration hash; a journal written under a
     *        different configuration is rejected with fatal(), never
     *        silently merged
     */
    SearchJournal(std::string path, std::uint64_t fingerprint);

    /**
     * Load an existing journal. Returns true when entries were
     * recovered; false when there is nothing to resume (no file yet,
     * or one of another format version, which is discarded). fatal()
     * on corruption or a fingerprint mismatch; the mismatch message
     * names both fingerprints and, given a hint callback, which
     * configuration field likely changed.
     */
    bool load();

    /**
     * Diagnostic callback consulted on a fingerprint mismatch: given
     * the fingerprint stored in the journal, return a human-readable
     * guess at which config field changed ("" = no guess). See
     * fingerprint_mismatch_hint() in search.hpp for the standard
     * implementation; set before load().
     */
    void set_mismatch_hint(RecordLog::MismatchHint hint)
    {
        log_.set_mismatch_hint(std::move(hint));
    }

    /** Entry for a candidate, or null when nothing is journaled. */
    const CheckpointEntry *entry(int index) const;

    /** @name Stage records (append + flush immediately) @{ */
    void record_candidate(int index, const circ::Circuit &circuit);
    void record_cnr(int index, double cnr, std::uint64_t executions);
    void record_repcap(int index, double repcap,
                       std::uint64_t executions);
    void record_rank(int index, double score, bool rejected);
    /** @} */

  private:
    /** Append `body`, then apply it as load() would. */
    void record(const std::string &body);
    /** Parse one record body into entries_; false = malformed. */
    bool parse_record(const std::string &body);

    RecordLog log_;
    std::map<int, CheckpointEntry> entries_;
};

/** Exact double <-> text helpers (hexfloat, bit-preserving). */
std::string double_to_hex(double value);
double double_from_hex(const std::string &text);
/** Non-throwing parse; false on malformed text (torn-record path). */
bool try_double_from_hex(const std::string &text, double &value);

} // namespace elv::core
