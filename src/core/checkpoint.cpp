#include "core/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "circuit/serialize.hpp"
#include "common/logging.hpp"

namespace elv::core {

std::string
double_to_hex(double value)
{
    // Hexfloat survives the text round-trip bit-exactly, which is what
    // makes a resumed ranking identical to an uninterrupted one.
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    return buffer;
}

double
double_from_hex(const std::string &text)
{
    double value = 0.0;
    if (!try_double_from_hex(text, value))
        elv::fatal("journal: bad numeric field '" + text + "'");
    return value;
}

bool
try_double_from_hex(const std::string &text, double &value)
{
    char *end = nullptr;
    value = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0';
}

SearchJournal::SearchJournal(std::string path, std::uint64_t fingerprint)
    : log_(std::move(path), "elv-search-journal 2", fingerprint)
{
}

const CheckpointEntry *
SearchJournal::entry(int index) const
{
    const auto it = entries_.find(index);
    return it == entries_.end() ? nullptr : &it->second;
}

bool
SearchJournal::parse_record(const std::string &body)
{
    std::istringstream ls(body);
    std::string keyword;
    int index = -1;
    ls >> keyword >> index;
    if (index < 0)
        return false;
    if (keyword == "cand") {
        // The circuit text itself contains spaces; take the whole
        // remainder of the line.
        std::string circuit_line;
        std::getline(ls >> std::ws, circuit_line);
        if (circuit_line.empty())
            return false;
        // Parse now so a corrupt circuit fails at load, not mid-search;
        // any throw (invariants on mangled bytes too) means malformed.
        try {
            circ::from_text_line(circuit_line);
        } catch (const std::exception &) {
            return false;
        }
        entries_[index].circuit_line = std::move(circuit_line);
        return true;
    }
    if (keyword == "cnr") {
        // Every field must extract: a record torn mid-write would
        // otherwise load a wrong value or drop its execution count.
        std::string value;
        std::uint64_t executions = 0, retries = 0;
        int degraded = 0;
        double cnr = 0.0;
        if (!(ls >> value >> executions >> degraded >> retries) ||
            !try_double_from_hex(value, cnr))
            return false;
        CheckpointEntry &e = entries_[index];
        // A fallback backend's value is no CNR of the configured
        // backend: the record loads, and like any later record it
        // supersedes earlier ones, but it leaves the stage pending.
        e.has_cnr = degraded == 0;
        e.cnr = cnr;
        e.cnr_executions = executions;
        return true;
    }
    if (keyword == "repcap") {
        std::string value;
        std::uint64_t executions = 0;
        double repcap = 0.0;
        if (!(ls >> value >> executions) ||
            !try_double_from_hex(value, repcap))
            return false;
        CheckpointEntry &e = entries_[index];
        e.has_repcap = true;
        e.repcap = repcap;
        e.repcap_executions = executions;
        return true;
    }
    if (keyword == "rank") {
        // Audit record; the ranking is recomputed on resume.
        std::string score;
        int rejected = 0;
        return static_cast<bool>(ls >> score >> rejected);
    }
    return false;
}

bool
SearchJournal::load()
{
    const auto other = log_.load(
        [this](const std::string &body) { return parse_record(body); });
    if (other) {
        // Another version's record format may differ: run the search
        // fresh rather than fail with a misleading corruption error.
        elv::warn("journal " + log_.path() + ": incompatible version '" +
                  *other + "' (this build writes version 2); "
                  "discarding it and restarting the search fresh");
        log_.reset();
    }
    return !entries_.empty();
}

void
SearchJournal::record(const std::string &body)
{
    // Appended, then applied through the load-time parser: one grammar,
    // and a record that would not load again fails here, not on resume.
    log_.append(body);
    ELV_REQUIRE(parse_record(body), "journal record does not parse: "
                                        << body);
}

void
SearchJournal::record_candidate(int index, const circ::Circuit &circuit)
{
    record("cand " + std::to_string(index) + " " +
           circ::to_text_line(circuit));
}

void
SearchJournal::record_cnr(int index, double cnr, std::uint64_t executions)
{
    record("cnr " + std::to_string(index) + " " + double_to_hex(cnr) +
           " " + std::to_string(executions) + " 0 0");
}

void
SearchJournal::record_repcap(int index, double repcap,
                             std::uint64_t executions)
{
    record("repcap " + std::to_string(index) + " " +
           double_to_hex(repcap) + " " + std::to_string(executions));
}

void
SearchJournal::record_rank(int index, double score, bool rejected)
{
    record("rank " + std::to_string(index) + " " + double_to_hex(score) +
           " " + (rejected ? "1" : "0"));
}

} // namespace elv::core
