#include "lint/sarif.hpp"

#include <optional>
#include <sstream>

#include "common/file_write.hpp"
#include "common/fnv1a.hpp"
#include "common/logging.hpp"
#include "common/runinfo.hpp"
#include "obs/json.hpp"

namespace elv::lint {

namespace {

/** SARIF result level for a severity. */
const char *
sarif_level(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "none";
}

} // namespace

std::string
diagnostic_fingerprint(const std::string &artifact,
                       const Diagnostic &diagnostic)
{
    std::ostringstream oss;
    oss << artifact << "|" << diagnostic.rule << "|op"
        << diagnostic.op_index << "|" << std::hex
        << elv::fnv1a64(diagnostic.message);
    return oss.str();
}

Baseline
Baseline::parse(const std::string &text)
{
    Baseline baseline;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        while (!line.empty() &&
               (line.back() == '\r' || line.back() == ' '))
            line.pop_back();
        if (line.empty() || line[0] == '#')
            continue;
        baseline.entries_.insert(line);
    }
    return baseline;
}

Baseline
Baseline::load(const std::string &path)
{
    const std::optional<std::string> text = elv::read_file(path);
    if (!text)
        elv::fatal("cannot read lint baseline " + path);
    return parse(*text);
}

std::string
Baseline::render(const std::vector<ArtifactReport> &reports)
{
    std::ostringstream oss;
    oss << "# elvlint baseline: findings suppressed by the lint gate.\n"
        << "# One fingerprint per line "
           "(artifact|rule|op<index>|message-hash).\n"
        << "# Regenerate with: elivagar_cli lint ... --write-baseline "
           "FILE\n";
    for (const ArtifactReport &entry : reports)
        for (const Diagnostic &d : entry.report.diagnostics)
            oss << diagnostic_fingerprint(entry.artifact, d) << "\n";
    return oss.str();
}

bool
Baseline::contains(const std::string &fingerprint) const
{
    return entries_.count(fingerprint) > 0;
}

FindingCounts
count_findings(const std::vector<ArtifactReport> &reports,
               const Baseline *baseline)
{
    FindingCounts counts;
    for (const ArtifactReport &entry : reports) {
        for (const Diagnostic &d : entry.report.diagnostics) {
            if (baseline && baseline->contains(diagnostic_fingerprint(
                                entry.artifact, d))) {
                ++counts.suppressed;
                continue;
            }
            switch (d.severity) {
              case Severity::Error: ++counts.errors; break;
              case Severity::Warning: ++counts.warnings; break;
              case Severity::Note: ++counts.notes; break;
            }
        }
    }
    return counts;
}

std::string
to_sarif(const std::vector<ArtifactReport> &reports,
         const Baseline *baseline)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
    json.kv("version", "2.1.0");
    json.key("runs").begin_array().begin_object();
    json.key("tool").begin_object().key("driver").begin_object();
    json.kv("name", "elvlint");
    json.kv("version", elv::version_string());
    json.kv("informationUri", "https://github.com/elivagar/elivagar");
    json.key("rules").begin_array();
    for (const RuleInfo &rule : rule_catalog()) {
        json.begin_object().kv("id", rule.id);
        json.key("shortDescription").begin_object();
        json.kv("text", rule.summary).end_object();
        json.key("defaultConfiguration").begin_object();
        json.kv("level", sarif_level(rule.severity)).end_object();
        json.end_object();
    }
    json.end_array().end_object().end_object(); // rules, driver, tool

    json.key("results").begin_array();
    for (const ArtifactReport &entry : reports) {
        for (const Diagnostic &d : entry.report.diagnostics) {
            const std::string fingerprint =
                diagnostic_fingerprint(entry.artifact, d);
            json.begin_object();
            json.kv("ruleId", d.rule);
            json.kv("level", sarif_level(d.severity));
            json.key("message").begin_object();
            json.kv("text", d.message).end_object();
            // Native-text circuit files carry a 2-line header before
            // the op stream, so op i lives on line i + 3.
            json.key("locations").begin_array().begin_object();
            json.key("physicalLocation").begin_object();
            json.key("artifactLocation").begin_object();
            json.kv("uri", entry.artifact).end_object();
            json.key("region").begin_object();
            json.kv("startLine", d.op_index >= 0 ? d.op_index + 3 : 1);
            json.end_object().end_object().end_object().end_array();
            json.key("partialFingerprints").begin_object();
            json.kv("elvlint/v1", fingerprint).end_object();
            if (baseline && baseline->contains(fingerprint)) {
                json.key("suppressions").begin_array().begin_object();
                json.kv("kind", "external").end_object().end_array();
            }
            json.end_object();
        }
    }
    json.end_array().end_object().end_array().end_object();
    return json.str();
}

std::string
to_json(const std::vector<ArtifactReport> &reports,
        const Baseline *baseline)
{
    const FindingCounts counts = count_findings(reports, baseline);
    obs::JsonWriter json;
    json.begin_object();
    json.key("artifacts").begin_array();
    for (const ArtifactReport &entry : reports) {
        json.begin_object().kv("artifact", entry.artifact);
        json.key("diagnostics").begin_array();
        for (const Diagnostic &d : entry.report.diagnostics) {
            json.begin_object();
            json.kv("severity", severity_name(d.severity));
            json.kv("rule", d.rule);
            json.kv("op", d.op_index);
            json.kv("message", d.message);
            json.kv("suppressed",
                    baseline && baseline->contains(diagnostic_fingerprint(
                                    entry.artifact, d)));
            json.end_object();
        }
        json.end_array().end_object();
    }
    json.end_array();
    json.kv("errors", static_cast<std::uint64_t>(counts.errors));
    json.kv("warnings", static_cast<std::uint64_t>(counts.warnings));
    json.kv("notes", static_cast<std::uint64_t>(counts.notes));
    json.kv("suppressed", static_cast<std::uint64_t>(counts.suppressed));
    json.end_object();
    return json.str();
}

} // namespace elv::lint
