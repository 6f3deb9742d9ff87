#include "device/device.hpp"

#include <algorithm>
#include <cmath>

#include "common/fnv1a.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

namespace elv::dev {

namespace {

/** Static description of one catalog entry. */
struct CatalogEntry
{
    const char *name;
    /** Table 3 medians. */
    double readout_median;
    double error_1q_median;
    double error_2q_median;
    /** Coherence medians (microseconds). */
    double t1_median_us;
    double t2_median_us;
    /** Durations (nanoseconds). */
    double dur_1q_ns;
    double dur_2q_ns;
    double dur_ro_ns;
};

// Readout / 1Q / 2Q medians follow Table 3 of the paper; T1/T2 and
// durations use typical public values for each vendor's platform.
const CatalogEntry kCatalog[] = {
    {"oqc_lucy", 1.3e-1, 6.2e-4, 4.4e-2, 40.0, 30.0, 40.0, 400.0, 1000.0},
    {"rigetti_aspen_m2", 7.0e-2, 1.4e-3, 8.8e-2, 25.0, 20.0, 40.0, 180.0,
     1500.0},
    {"rigetti_aspen_m3", 8.0e-2, 1.5e-3, 9.3e-2, 25.0, 20.0, 40.0, 180.0,
     1500.0},
    {"ibmq_jakarta", 2.6e-2, 2.2e-4, 8.5e-3, 120.0, 60.0, 35.0, 300.0,
     700.0},
    {"ibm_nairobi", 2.4e-2, 2.7e-4, 9.6e-3, 115.0, 70.0, 35.0, 300.0,
     700.0},
    {"ibm_lagos", 1.9e-2, 2.1e-4, 9.8e-3, 125.0, 80.0, 35.0, 300.0, 700.0},
    {"ibm_perth", 2.8e-2, 2.8e-4, 8.7e-3, 110.0, 65.0, 35.0, 300.0, 700.0},
    {"ibm_geneva", 2.7e-2, 2.2e-4, 1.1e-2, 130.0, 75.0, 35.0, 300.0,
     700.0},
    {"ibm_guadalupe", 2.0e-2, 2.9e-4, 8.9e-3, 120.0, 90.0, 35.0, 300.0,
     700.0},
    {"ibmq_kolkata", 1.2e-2, 2.3e-4, 9.0e-3, 140.0, 100.0, 35.0, 300.0,
     700.0},
    {"ibmq_mumbai", 1.9e-2, 2.0e-4, 9.6e-3, 135.0, 95.0, 35.0, 300.0,
     700.0},
    {"ibm_kyoto", 1.4e-2, 2.5e-4, 9.1e-3, 180.0, 110.0, 35.0, 300.0,
     700.0},
    {"ibm_osaka", 1.7e-2, 2.2e-4, 1.0e-2, 190.0, 115.0, 35.0, 300.0,
     700.0},
    {"ibmq_manila", 2.5e-2, 2.5e-4, 8.0e-3, 120.0, 60.0, 35.0, 300.0,
     700.0},
};

Topology
topology_for(const std::string &name)
{
    if (name == "oqc_lucy")
        return ring_topology(8);
    if (name == "rigetti_aspen_m2")
        return aspen_lattice(2, 5, false);
    if (name == "rigetti_aspen_m3")
        return aspen_lattice(2, 5, true);
    if (name == "ibmq_jakarta" || name == "ibm_nairobi" ||
        name == "ibm_lagos" || name == "ibm_perth")
        return ibm_falcon_7();
    if (name == "ibm_geneva" || name == "ibm_guadalupe")
        return ibm_heavy_hex_16();
    if (name == "ibmq_kolkata" || name == "ibmq_mumbai")
        return ibm_falcon_27();
    if (name == "ibm_kyoto" || name == "ibm_osaka")
        return ibm_eagle_127();
    if (name == "ibmq_manila")
        return line_topology(5);
    elv::fatal("unknown device: " + name);
}

/**
 * Sample values lognormally around `median` (so the generated device's
 * median matches the catalog) with mild spread, clamped to [lo, hi].
 */
std::vector<double>
sample_around(std::size_t n, double median, double sigma, double lo,
              double hi, elv::Rng &rng)
{
    std::vector<double> out(n);
    for (auto &v : out)
        v = std::clamp(median * std::exp(sigma * rng.normal()), lo, hi);
    // Force the exact median: shift the middle order statistic.
    std::vector<double> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    const double current = sorted[n / 2];
    if (current > 0.0) {
        const double scale = median / current;
        for (auto &v : out)
            v = std::clamp(v * scale, lo, hi);
    }
    return out;
}

} // namespace

void
Device::validate() const
{
    const std::size_t n = static_cast<std::size_t>(num_qubits());
    const std::size_t m = topology.edges().size();
    const std::string who = name.empty() ? "<unnamed device>" : name;

    auto check_size = [&](const std::vector<double> &values,
                          std::size_t expected, const char *field) {
        if (values.size() != expected)
            elv::fatal(who + ": calibration vector '" + field +
                       "' has " + std::to_string(values.size()) +
                       " entries, expected " + std::to_string(expected));
    };
    check_size(t1_us, n, "t1_us");
    check_size(t2_us, n, "t2_us");
    check_size(readout_error, n, "readout_error");
    check_size(error_1q, n, "error_1q");
    check_size(error_2q, m, "error_2q");

    auto check_time = [&](const std::vector<double> &values,
                          const char *field) {
        for (std::size_t q = 0; q < values.size(); ++q)
            if (!std::isfinite(values[q]) || values[q] <= 0.0)
                elv::fatal(who + ": " + field + "[" + std::to_string(q) +
                           "] = " + std::to_string(values[q]) +
                           " is not a positive finite time");
    };
    check_time(t1_us, "t1_us");
    check_time(t2_us, "t2_us");

    auto check_rate = [&](const std::vector<double> &values,
                          const char *field) {
        for (std::size_t i = 0; i < values.size(); ++i)
            if (!std::isfinite(values[i]) || values[i] < 0.0 ||
                values[i] > 1.0)
                elv::fatal(who + ": " + field + "[" + std::to_string(i) +
                           "] = " + std::to_string(values[i]) +
                           " is not a rate in [0, 1]");
    };
    check_rate(readout_error, "readout_error");
    check_rate(error_1q, "error_1q");
    check_rate(error_2q, "error_2q");

    if (!std::isfinite(duration_1q_ns) || duration_1q_ns <= 0.0 ||
        !std::isfinite(duration_2q_ns) || duration_2q_ns <= 0.0 ||
        !std::isfinite(duration_readout_ns) || duration_readout_ns <= 0.0)
        elv::fatal(who + ": gate/readout durations must be positive");
}

double
Device::edge_error(int a, int b) const
{
    const int idx = topology.edge_index(a, b);
    if (idx < 0)
        elv::fatal("no coupler between requested qubits");
    return error_2q[static_cast<std::size_t>(idx)];
}

double
Device::median(std::vector<double> values)
{
    ELV_REQUIRE(!values.empty(), "median of empty vector");
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

std::vector<std::string>
device_catalog()
{
    std::vector<std::string> names;
    for (const auto &entry : kCatalog)
        names.emplace_back(entry.name);
    return names;
}

Device
make_device(const std::string &name)
{
    const CatalogEntry *entry = nullptr;
    for (const auto &e : kCatalog)
        if (name == e.name)
            entry = &e;
    if (!entry)
        elv::fatal("unknown device: " + name);

    Device dev{name, topology_for(name), {}, {}, {}, {}, {}};
    dev.duration_1q_ns = entry->dur_1q_ns;
    dev.duration_2q_ns = entry->dur_2q_ns;
    dev.duration_readout_ns = entry->dur_ro_ns;

    // The device name's FNV-1a is the calibration sampling seed.
    elv::Rng rng(elv::fnv1a64(name));
    const std::size_t n =
        static_cast<std::size_t>(dev.topology.num_qubits());
    const std::size_t m = dev.topology.edges().size();

    dev.t1_us = sample_around(n, entry->t1_median_us, 0.25, 5.0, 500.0,
                              rng);
    dev.t2_us = sample_around(n, entry->t2_median_us, 0.25, 3.0, 500.0,
                              rng);
    // T2 <= 2 * T1 physically.
    for (std::size_t q = 0; q < n; ++q)
        dev.t2_us[q] = std::min(dev.t2_us[q], 2.0 * dev.t1_us[q]);
    dev.readout_error = sample_around(n, entry->readout_median, 0.3,
                                      1e-4, 0.45, rng);
    dev.error_1q = sample_around(n, entry->error_1q_median, 0.3, 1e-5,
                                 0.2, rng);
    dev.error_2q = sample_around(m, entry->error_2q_median, 0.3, 1e-4,
                                 0.45, rng);
    dev.validate();
    return dev;
}

} // namespace elv::dev
