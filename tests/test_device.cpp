/**
 * @file
 * Device-substrate tests: topology generators (qubit counts, degrees,
 * connectivity), distances, the Table 3 catalog (median error rates
 * matching the paper), determinism, connected-subgraph sampling, and
 * calibration validation.
 */
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "device/device.hpp"
#include "device/topology.hpp"

namespace {

using namespace elv;
using namespace elv::dev;

TEST(Topology, LineAndRing)
{
    const Topology line = line_topology(5);
    EXPECT_EQ(line.num_qubits(), 5);
    EXPECT_EQ(line.edges().size(), 4u);
    EXPECT_TRUE(line.is_connected());
    EXPECT_EQ(line.distance(0, 4), 4);

    const Topology ring = ring_topology(8);
    EXPECT_EQ(ring.edges().size(), 8u);
    EXPECT_EQ(ring.distance(0, 4), 4);
    EXPECT_EQ(ring.distance(0, 7), 1);
    for (int q = 0; q < 8; ++q)
        EXPECT_EQ(ring.neighbors(q).size(), 2u);
}

TEST(Topology, EdgeQueries)
{
    const Topology t = line_topology(3);
    EXPECT_TRUE(t.has_edge(0, 1));
    EXPECT_TRUE(t.has_edge(1, 0)); // undirected
    EXPECT_FALSE(t.has_edge(0, 2));
    EXPECT_GE(t.edge_index(1, 2), 0);
    EXPECT_EQ(t.edge_index(0, 2), -1);
}

TEST(Topology, IbmFalcon7Shape)
{
    const Topology t = ibm_falcon_7();
    EXPECT_EQ(t.num_qubits(), 7);
    EXPECT_EQ(t.edges().size(), 6u);
    EXPECT_TRUE(t.is_connected());
    // Hub qubits 1 and 5 have degree 3.
    EXPECT_EQ(t.neighbors(1).size(), 3u);
    EXPECT_EQ(t.neighbors(5).size(), 3u);
}

TEST(Topology, HeavyHex16And27)
{
    const Topology g = ibm_heavy_hex_16();
    EXPECT_EQ(g.num_qubits(), 16);
    EXPECT_EQ(g.edges().size(), 16u);
    EXPECT_TRUE(g.is_connected());

    const Topology k = ibm_falcon_27();
    EXPECT_EQ(k.num_qubits(), 27);
    EXPECT_EQ(k.edges().size(), 28u);
    EXPECT_TRUE(k.is_connected());
    // Heavy-hex: maximum degree 3.
    for (int q = 0; q < 27; ++q)
        EXPECT_LE(k.neighbors(q).size(), 3u);
}

TEST(Topology, Eagle127)
{
    const Topology t = ibm_eagle_127();
    EXPECT_EQ(t.num_qubits(), 127);
    EXPECT_TRUE(t.is_connected());
    for (int q = 0; q < 127; ++q) {
        EXPECT_GE(t.neighbors(q).size(), 1u);
        EXPECT_LE(t.neighbors(q).size(), 3u);
    }
}

TEST(Topology, GenericHeavyHexConnected)
{
    for (int rows = 1; rows <= 3; ++rows) {
        for (int cols = 1; cols <= 4; ++cols) {
            const Topology t = heavy_hex_lattice(rows, cols);
            EXPECT_TRUE(t.is_connected())
                << rows << "x" << cols;
            for (int q = 0; q < t.num_qubits(); ++q)
                EXPECT_LE(t.neighbors(q).size(), 3u);
        }
    }
}

TEST(Topology, AspenLattice)
{
    const Topology m2 = aspen_lattice(2, 5, false);
    EXPECT_EQ(m2.num_qubits(), 80);
    EXPECT_TRUE(m2.is_connected());

    const Topology m3 = aspen_lattice(2, 5, true);
    EXPECT_EQ(m3.num_qubits(), 79);
    EXPECT_TRUE(m3.is_connected());

    // Octagon interiors have degree 2 or 3 (ring + couplers).
    for (int q = 0; q < 80; ++q)
        EXPECT_LE(m2.neighbors(q).size(), 3u);
}

TEST(Topology, AllPairsDistancesMatchSingle)
{
    const Topology t = ibm_heavy_hex_16();
    const auto all = t.all_pairs_distances();
    for (int a = 0; a < 16; ++a)
        for (int b = 0; b < 16; ++b)
            EXPECT_EQ(all[static_cast<std::size_t>(a) * 16 +
                          static_cast<std::size_t>(b)],
                      t.distance(a, b));
}

TEST(Topology, SubgraphSamplingIsConnected)
{
    Rng rng(77);
    const Topology t = ibm_falcon_27();
    for (int trial = 0; trial < 50; ++trial) {
        const auto sub = sample_connected_subgraph(t, 5, rng);
        ASSERT_EQ(sub.size(), 5u);
        std::set<int> subset(sub.begin(), sub.end());
        EXPECT_EQ(subset.size(), 5u);
        // Connectivity of the induced subgraph via BFS.
        std::set<int> visited;
        std::vector<int> stack = {sub[0]};
        visited.insert(sub[0]);
        while (!stack.empty()) {
            const int q = stack.back();
            stack.pop_back();
            for (int nb : t.neighbors(q)) {
                if (subset.count(nb) && !visited.count(nb)) {
                    visited.insert(nb);
                    stack.push_back(nb);
                }
            }
        }
        EXPECT_EQ(visited.size(), 5u);
    }
}

TEST(Device, CatalogCoversTable3)
{
    const auto names = device_catalog();
    EXPECT_GE(names.size(), 12u);
    for (const auto &name : names) {
        const Device dev = make_device(name);
        EXPECT_EQ(dev.name, name);
        EXPECT_TRUE(dev.topology.is_connected()) << name;
        EXPECT_EQ(dev.t1_us.size(),
                  static_cast<std::size_t>(dev.num_qubits()));
        EXPECT_EQ(dev.error_2q.size(), dev.topology.edges().size());
        for (std::size_t q = 0;
             q < static_cast<std::size_t>(dev.num_qubits()); ++q) {
            EXPECT_GT(dev.t1_us[q], 0.0);
            EXPECT_LE(dev.t2_us[q], 2.0 * dev.t1_us[q] + 1e-9);
            EXPECT_GE(dev.readout_error[q], 0.0);
            EXPECT_LE(dev.readout_error[q], 0.5);
        }
    }
}

TEST(Device, QubitCountsMatchTable3)
{
    EXPECT_EQ(make_device("oqc_lucy").num_qubits(), 8);
    EXPECT_EQ(make_device("rigetti_aspen_m3").num_qubits(), 79);
    EXPECT_EQ(make_device("ibmq_jakarta").num_qubits(), 7);
    EXPECT_EQ(make_device("ibm_nairobi").num_qubits(), 7);
    EXPECT_EQ(make_device("ibm_lagos").num_qubits(), 7);
    EXPECT_EQ(make_device("ibm_perth").num_qubits(), 7);
    EXPECT_EQ(make_device("ibm_geneva").num_qubits(), 16);
    EXPECT_EQ(make_device("ibm_guadalupe").num_qubits(), 16);
    EXPECT_EQ(make_device("ibmq_kolkata").num_qubits(), 27);
    EXPECT_EQ(make_device("ibmq_mumbai").num_qubits(), 27);
    EXPECT_EQ(make_device("ibm_kyoto").num_qubits(), 127);
    EXPECT_EQ(make_device("ibm_osaka").num_qubits(), 127);
    EXPECT_EQ(make_device("ibmq_manila").num_qubits(), 5);
}

TEST(Device, MediansMatchPaperTable3)
{
    // Spot-check a few devices: the generated per-qubit values must have
    // medians close to the published Table 3 numbers.
    struct Expected
    {
        const char *name;
        double readout, e1q, e2q;
    };
    const Expected expected[] = {
        {"oqc_lucy", 1.3e-1, 6.2e-4, 4.4e-2},
        {"ibmq_kolkata", 1.2e-2, 2.3e-4, 9.0e-3},
        {"rigetti_aspen_m3", 8.0e-2, 1.5e-3, 9.3e-2},
        {"ibm_kyoto", 1.4e-2, 2.5e-4, 9.1e-3},
    };
    for (const auto &e : expected) {
        const Device dev = make_device(e.name);
        EXPECT_NEAR(Device::median(dev.readout_error) / e.readout, 1.0,
                    0.25)
            << e.name;
        EXPECT_NEAR(Device::median(dev.error_1q) / e.e1q, 1.0, 0.25)
            << e.name;
        EXPECT_NEAR(Device::median(dev.error_2q) / e.e2q, 1.0, 0.25)
            << e.name;
    }
}

TEST(Device, GenerationIsDeterministic)
{
    const Device a = make_device("ibm_lagos");
    const Device b = make_device("ibm_lagos");
    EXPECT_EQ(a.t1_us, b.t1_us);
    EXPECT_EQ(a.readout_error, b.readout_error);
    EXPECT_EQ(a.error_2q, b.error_2q);
}

TEST(Device, UnknownNameIsUsageError)
{
    EXPECT_THROW(make_device("ibm_atlantis"), elv::UsageError);
}

TEST(Device, EdgeErrorLookup)
{
    const Device dev = make_device("ibmq_jakarta");
    EXPECT_GT(dev.edge_error(0, 1), 0.0);
    EXPECT_THROW(dev.edge_error(0, 6), elv::UsageError);
}

// --- Calibration validation ---------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(DeviceValidate, CatalogDevicesAreValid)
{
    for (const std::string &name : dev::device_catalog())
        EXPECT_NO_THROW(dev::make_device(name).validate()) << name;
}

TEST(DeviceValidate, RejectsTruncatedCalibration)
{
    dev::Device device = dev::make_device("ibm_lagos");
    device.readout_error.pop_back();
    EXPECT_THROW(device.validate(), UsageError);
}

TEST(DeviceValidate, RejectsOutOfRangeRates)
{
    dev::Device device = dev::make_device("ibm_lagos");
    device.error_1q[0] = 1.5;
    EXPECT_THROW(device.validate(), UsageError);

    device = dev::make_device("ibm_lagos");
    device.error_2q[0] = -0.1;
    EXPECT_THROW(device.validate(), UsageError);

    device = dev::make_device("ibm_lagos");
    device.t1_us[0] = 0.0;
    EXPECT_THROW(device.validate(), UsageError);

    device = dev::make_device("ibm_lagos");
    device.t2_us[0] = kNaN;
    EXPECT_THROW(device.validate(), UsageError);

    device = dev::make_device("ibm_lagos");
    device.duration_2q_ns = -1.0;
    EXPECT_THROW(device.validate(), UsageError);
}

} // namespace
