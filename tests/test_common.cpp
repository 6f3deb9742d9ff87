/**
 * @file
 * Unit tests for the common substrate: RNG determinism and distribution
 * sanity, statistics, the table printer, distribution validation, the
 * reconnect backoff, the fd line-I/O layer every transport reads and
 * writes through, and the checksummed record log every durable file is
 * written through.
 */
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "common/cancel.hpp"
#include "common/file_write.hpp"
#include "common/line_io.hpp"
#include "common/logging.hpp"
#include "common/record_log.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "common/validate.hpp"

namespace {

using elv::Rng;

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next_u64() == b.next_u64();
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias)
{
    Rng rng(11);
    std::vector<int> counts(5, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[rng.uniform_index(5)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 500);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(3);
    std::vector<double> xs(20000);
    for (auto &x : xs)
        x = rng.normal(2.0, 0.5);
    EXPECT_NEAR(elv::mean(xs), 2.0, 0.02);
    EXPECT_NEAR(elv::stddev(xs), 0.5, 0.02);
}

TEST(Rng, CategoricalFollowsWeights)
{
    Rng rng(5);
    std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[rng.categorical(w)];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.01);
    EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
    EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(Rng, ChooseReturnsDistinctIndices)
{
    Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        auto picked = rng.choose(10, 4);
        ASSERT_EQ(picked.size(), 4u);
        std::set<std::size_t> unique(picked.begin(), picked.end());
        EXPECT_EQ(unique.size(), 4u);
        for (auto v : picked)
            EXPECT_LT(v, 10u);
    }
}

TEST(Rng, ChooseAllIsPermutation)
{
    Rng rng(13);
    auto picked = rng.choose(6, 6);
    std::set<std::size_t> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), 6u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(21);
    Rng child = a.split();
    EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Statistics, MeanAndStddev)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(elv::mean(xs), 2.5);
    EXPECT_NEAR(elv::stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Statistics, PearsonPerfectCorrelation)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(elv::pearson_r(xs, ys), 1.0, 1e-12);
    std::vector<double> neg = {10, 8, 6, 4, 2};
    EXPECT_NEAR(elv::pearson_r(xs, neg), -1.0, 1e-12);
}

TEST(Statistics, PearsonZeroOnConstant)
{
    std::vector<double> xs = {1, 2, 3};
    std::vector<double> ys = {5, 5, 5};
    EXPECT_DOUBLE_EQ(elv::pearson_r(xs, ys), 0.0);
}

TEST(Statistics, SpearmanMonotoneNonlinear)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys = {1, 8, 27, 64, 125}; // monotone, nonlinear
    EXPECT_NEAR(elv::spearman_r(xs, ys), 1.0, 1e-12);
}

TEST(Statistics, SpearmanHandlesTies)
{
    std::vector<double> xs = {1, 2, 2, 3};
    std::vector<double> ys = {1, 2, 2, 3};
    EXPECT_NEAR(elv::spearman_r(xs, ys), 1.0, 1e-12);
}

TEST(Statistics, AverageRanksTies)
{
    auto ranks = elv::average_ranks({10.0, 20.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(ranks[0], 1.0);
    EXPECT_DOUBLE_EQ(ranks[1], 2.5);
    EXPECT_DOUBLE_EQ(ranks[2], 2.5);
    EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(Statistics, TotalVariationDistance)
{
    std::vector<double> p = {0.5, 0.5, 0.0};
    std::vector<double> q = {0.0, 0.5, 0.5};
    EXPECT_DOUBLE_EQ(elv::total_variation_distance(p, q), 0.5);
    EXPECT_DOUBLE_EQ(elv::total_variation_distance(p, p), 0.0);
}

TEST(Statistics, TvdIsSymmetricAndBounded)
{
    std::vector<double> p = {1.0, 0.0};
    std::vector<double> q = {0.0, 1.0};
    EXPECT_DOUBLE_EQ(elv::total_variation_distance(p, q), 1.0);
    EXPECT_DOUBLE_EQ(elv::total_variation_distance(q, p), 1.0);
}

TEST(Statistics, GeometricMean)
{
    std::vector<double> xs = {1.0, 100.0};
    EXPECT_NEAR(elv::geometric_mean(xs), 10.0, 1e-9);
}

TEST(Statistics, RequiresNonEmpty)
{
    std::vector<double> empty;
    EXPECT_THROW(elv::mean(empty), elv::InternalError);
    EXPECT_THROW(elv::geometric_mean(empty), elv::InternalError);
}

TEST(Table, RendersAlignedCells)
{
    elv::Table t("Demo");
    t.set_header({"name", "value"});
    t.add_row({"alpha", elv::Table::fmt(1.23456, 2)});
    t.add_row({"b", "x"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("Demo"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.23"), std::string::npos);
}

TEST(Table, PercentFormatting)
{
    EXPECT_EQ(elv::Table::pct(0.825), "82.5");
    EXPECT_EQ(elv::Table::fmt(3.14159, 3), "3.142");
}

TEST(Logging, RequireThrowsInternalError)
{
    EXPECT_THROW(ELV_REQUIRE(false, "boom"), elv::InternalError);
    EXPECT_NO_THROW(ELV_REQUIRE(true, "fine"));
}

TEST(Logging, FatalThrowsUsageError)
{
    EXPECT_THROW(elv::fatal("bad input"), elv::UsageError);
}

// --- Checked file writers ----------------------------------------------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(FileWrite, ReportsAFullDeviceAndABadPath)
{
    const std::string path = ::testing::TempDir() + "elv_write_file.txt";
    EXPECT_TRUE(elv::write_file(path, "first\n"));
    EXPECT_TRUE(elv::write_file(path, "second\n"));
    EXPECT_EQ(slurp(path), "second\n");
    std::remove(path.c_str());
    EXPECT_FALSE(elv::write_file("/nonexistent-dir/file.txt", "x"));
    // The open succeeds on /dev/full; the flush is what fails.
    if (std::filesystem::exists("/dev/full")) {
        EXPECT_FALSE(elv::write_file("/dev/full", "x"));
    }
}

TEST(FileWrite, AtomicWriteReplacesWholeOrLeavesTheTargetAlone)
{
    const std::string dir = ::testing::TempDir() + "elv_atomic_write";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/doc.json";
    EXPECT_TRUE(elv::write_file_atomic(path, "old\n"));
    EXPECT_TRUE(elv::write_file_atomic(path, "new\n"));
    EXPECT_EQ(slurp(path), "new\n");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // A rename that cannot land (the target is a directory) removes
    // the tmp file and leaves the target as it was.
    const std::string blocked = dir + "/blocked";
    std::filesystem::create_directories(blocked);
    EXPECT_FALSE(elv::write_file_atomic(blocked, "x"));
    EXPECT_TRUE(std::filesystem::is_directory(blocked));
    EXPECT_FALSE(std::filesystem::exists(blocked + ".tmp"));
    EXPECT_FALSE(elv::write_file_atomic(dir + "/missing/doc.json", "x"));
    std::filesystem::remove_all(dir);
}

// --- Line I/O ----------------------------------------------------------

/** Lines of every protocol that reads through LineReader: server
 * requests and responses, dist worker events, an HTTP request head,
 * and one line longer than a read chunk. */
const std::vector<std::string> &
protocol_corpus()
{
    static const std::vector<std::string> corpus = {
        R"({"op":"submit","spec":{"benchmark":"moons","candidates":16}})",
        R"({"ok":true,"id":"job-1","accepted":true})",
        R"({"op":"watch","id":"job-1"})",
        R"({"id":"job-1","state":"running","phase":"cnr","done":3})",
        R"({"ok":false,"error":"too many connections"})",
        R"({"op":"configure","threads":2,"fp":"00deadbeefcafe01"})",
        R"({"ev":"ready","protocol":1,"fp":"00deadbeefcafe01"})",
        R"({"op":"cnr","indices":[0,1,2,3,4,5,6,7]})",
        R"({"ev":"cnr","i":3,"cnr":"0x1.f9add3c0ca458p-4","execs":8})",
        R"({"ev":"done","op":"cnr","n":8})",
        R"({"ev":"bye"})",
        "GET /metrics HTTP/1.1",
        "Host: 127.0.0.1:9100",
        "Accept: text/plain",
        "",
        std::string(10000, 'x'),
    };
    return corpus;
}

/**
 * Send `lines` through the writer's end in seeded random chunk sizes,
 * each line ending in "\n" or "\r\n" at random, then close it; the
 * reader must get exactly the original lines back, then "closed".
 */
void
expect_corpus_round_trip(int read_fd, int write_fd, std::uint64_t seed)
{
    const std::vector<std::string> &corpus = protocol_corpus();
    std::thread writer([&corpus, write_fd, seed] {
        elv::Rng rng(seed);
        std::string stream;
        for (const std::string &line : corpus)
            stream += line + (rng.bernoulli(0.5) ? "\r\n" : "\n");
        std::string error;
        for (std::size_t at = 0; at < stream.size();) {
            const std::size_t n = std::min(stream.size() - at,
                                           1 + rng.uniform_index(700));
            if (!elv::write_all(write_fd, stream.substr(at, n), error))
                break;
            at += n;
        }
        ::close(write_fd);
    });
    elv::LineReader reader(read_fd, 64 * 1024);
    std::string line, error;
    for (const std::string &expected : corpus) {
        if (!reader.read_line(line, error, 10.0)) {
            ADD_FAILURE() << "seed " << seed << ": " << error;
            break;
        }
        EXPECT_EQ(line, expected) << "seed " << seed;
    }
    EXPECT_FALSE(reader.read_line(line, error, 10.0));
    EXPECT_NE(error.find("closed"), std::string::npos) << error;
    // Closing first unblocks a writer stuck on a reader that gave up.
    ::close(read_fd);
    writer.join();
}

TEST(LineIo, ChunkedCorpusRoundTripsOverSocketsAndPipes)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        expect_corpus_round_trip(sv[0], sv[1], seed);
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        expect_corpus_round_trip(fds[0], fds[1], seed);
    }
}

TEST(LineIo, LineOverTheCapIsTooLong)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string error;
    ASSERT_TRUE(elv::write_all(fds[1], "12345678\r\n123456789\n", error));
    elv::LineReader reader(fds[0], 8);
    std::string line;
    ASSERT_TRUE(reader.read_line(line, error, 5.0)) << error;
    EXPECT_EQ(line, "12345678"); // at the cap, CR not counted
    EXPECT_FALSE(reader.read_line(line, error, 5.0));
    EXPECT_NE(error.find("too long"), std::string::npos) << error;

    // An unterminated line fails as soon as it passes the cap, without
    // waiting for a newline or the deadline.
    ASSERT_TRUE(elv::write_all(fds[1], std::string(64, 'y'), error));
    elv::LineReader fresh(fds[0], 8);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(fresh.read_line(line, error, 30.0));
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              5.0);
    EXPECT_NE(error.find("too long"), std::string::npos) << error;
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(LineIo, EofMidLineIsClosedNeverAPartialLine)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string error;
    ASSERT_TRUE(elv::write_all(fds[1], "whole\npart", error));
    ::close(fds[1]);
    elv::LineReader reader(fds[0], 1024);
    std::string line;
    ASSERT_TRUE(reader.read_line(line, error)) << error;
    EXPECT_EQ(line, "whole");
    line = "untouched";
    EXPECT_FALSE(reader.read_line(line, error));
    EXPECT_NE(error.find("closed"), std::string::npos) << error;
    EXPECT_EQ(line, "untouched");
    ::close(fds[0]);
}

TEST(LineIo, StalledHalfLineTimesOutAtItsDeadline)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string error;
    ASSERT_TRUE(elv::write_all(sv[1], "{\"ok\":tr", error));
    elv::LineReader reader(sv[0], 1024);
    std::string line;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(reader.read_line(line, error, 0.3));
    const double took = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_GE(took, 0.29);
    EXPECT_LT(took, 5.0);
    EXPECT_NE(error.find("timed out"), std::string::npos) << error;

    // The rest of the line still arrives intact after the timeout.
    ASSERT_TRUE(elv::write_all(sv[1], "ue}\n", error));
    ASSERT_TRUE(reader.read_line(line, error, 5.0)) << error;
    EXPECT_EQ(line, "{\"ok\":true}");
    ::close(sv[0]);
    ::close(sv[1]);
}

/** Nagle would hold a second back-to-back line (a watch ack, then its
 * first status line) until the peer's delayed ACK, ~40 ms later. */
TEST(LineIo, AcceptedAndConnectedSocketsSetTcpNoDelay)
{
    elv::Listener listener("127.0.0.1", 0);
    ASSERT_GT(listener.port(), 0);
    // An empty tick returns -1 instead of blocking.
    EXPECT_LT(listener.accept(20), 0);

    std::string error;
    const int client = elv::connect_tcp("127.0.0.1", listener.port(), error);
    ASSERT_GE(client, 0) << error;
    int accepted = -1;
    for (int tick = 0; tick < 50 && accepted < 0; ++tick)
        accepted = listener.accept(100);
    ASSERT_GE(accepted, 0);

    for (const int fd : {client, accepted}) {
        int value = 0;
        socklen_t len = sizeof value;
        ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len),
                  0);
        EXPECT_NE(value, 0) << "fd " << fd;
    }

    // And the pair carries lines both ways.
    ASSERT_TRUE(elv::write_line(client, "ping", error)) << error;
    elv::LineReader server_side(accepted, 64);
    std::string line;
    ASSERT_TRUE(server_side.read_line(line, error, 5.0)) << error;
    EXPECT_EQ(line, "ping");
    ::close(client);
    ::close(accepted);
}

/** Connects past a full accept queue wait for the kernel's 1 s SYN
 * retransmit; a burst the server's connection cap admits must fit. */
TEST(LineIo, ListenerQueuesABurstOfConnects)
{
    elv::Listener listener("127.0.0.1", 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

    // Nothing accepts, so a connect completes only once the accept
    // queue holds it.
    std::vector<int> fds;
    std::string failure;
    for (int n = 1; n <= 70 && failure.empty(); ++n) {
        const int fd = ::socket(
            AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        ASSERT_GE(fd, 0) << std::strerror(errno);
        fds.push_back(fd);
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) != 0 &&
            errno != EINPROGRESS)
            failure = "connect " + std::to_string(n) + ": " +
                      std::strerror(errno);
    }
    for (std::size_t i = 0; i < fds.size() && failure.empty(); ++i) {
        pollfd pfd{fds[i], POLLOUT, 0};
        int error = 0;
        socklen_t len = sizeof error;
        if (::poll(&pfd, 1, 500) != 1)
            failure = "connect " + std::to_string(i + 1) +
                      " of 70 still pending after 0.5 s";
        else if (::getsockopt(fds[i], SOL_SOCKET, SO_ERROR, &error,
                              &len) != 0 ||
                 error != 0)
            failure = "connect " + std::to_string(i + 1) + ": " +
                      std::strerror(error);
    }
    for (const int fd : fds)
        ::close(fd);
    EXPECT_EQ(failure, "");
}

// --- Record log --------------------------------------------------------

std::string
log_path(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "elv_log_" + name;
    std::remove(path.c_str());
    return path;
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** A fingerprinted test log at `path`. */
elv::RecordLog
test_log(const std::string &path)
{
    return elv::RecordLog(path, "elv-test-log 1", 0x2a);
}

/** load() of `log`, collecting the replayed bodies. */
std::vector<std::string>
replay(elv::RecordLog &log)
{
    std::vector<std::string> bodies;
    EXPECT_FALSE(log.load([&](const std::string &body) {
                        bodies.push_back(body);
                        return true;
                    })
                     .has_value());
    return bodies;
}

/** Header block + two records, checksums computed independently. */
const std::string kHeaderBlock =
    "elv-test-log 1\nfingerprint 000000000000002a\n";
const std::string kTwoRecords = kHeaderBlock +
                                "alpha 1 ~f47b7909acc18eca\n"
                                "beta ~f4039baf9ff2ba79\n";

TEST(RecordLog, AppendWritesOneHeaderThenChecksummedLines)
{
    const std::string path = log_path("append");
    {
        elv::RecordLog log = test_log(path);
        EXPECT_TRUE(replay(log).empty()); // missing file
        log.append("alpha 1");
        log.append("beta");
    }
    EXPECT_EQ(slurp(path), kTwoRecords);

    elv::RecordLog again = test_log(path);
    EXPECT_EQ(replay(again), (std::vector<std::string>{"alpha 1", "beta"}));
    again.append("gamma");
    EXPECT_EQ(slurp(path), kTwoRecords + "gamma ~3d9b7fc827fa9ec8\n");

    // A log without a fingerprint has a header line only.
    const std::string bare = log_path("bare");
    elv::RecordLog plain(bare, "elv-test-log 1");
    plain.append("beta");
    EXPECT_EQ(slurp(bare), "elv-test-log 1\nbeta ~f4039baf9ff2ba79\n");
}

TEST(RecordLog, EmptyFileMeansNothingLogged)
{
    const std::string path = log_path("empty");
    spit(path, "");
    elv::RecordLog log = test_log(path);
    EXPECT_TRUE(replay(log).empty());
    log.append("beta");
    EXPECT_EQ(slurp(path), kHeaderBlock + "beta ~f4039baf9ff2ba79\n");
}

TEST(RecordLog, TornHeaderResetsAtEveryByteOffset)
{
    const std::string path = log_path("torn_header");
    for (std::size_t cut = 1; cut < kHeaderBlock.size(); ++cut) {
        spit(path, kHeaderBlock.substr(0, cut));
        elv::RecordLog log = test_log(path);
        EXPECT_TRUE(replay(log).empty()) << "cut " << cut;
        EXPECT_EQ(std::filesystem::file_size(path), 0u) << "cut " << cut;
        log.append("beta");
        EXPECT_EQ(slurp(path), kHeaderBlock + "beta ~f4039baf9ff2ba79\n")
            << "cut " << cut;
    }
    // A header complete with its newline and no fingerprint line yet
    // is torn too.
    spit(path, "elv-test-log 1\n");
    elv::RecordLog log = test_log(path);
    EXPECT_TRUE(replay(log).empty());
    EXPECT_EQ(std::filesystem::file_size(path), 0u);
}

TEST(RecordLog, DamagedHeaderWithRecordsAfterItIsFatal)
{
    const std::string path = log_path("bad_header");
    const std::string records = kTwoRecords.substr(kHeaderBlock.size());
    for (const std::string &header :
         {std::string("elv-test-lo\n"), std::string("garbage\n"),
          std::string("elv-test-log 1\nfingerprint 2a\n"),
          std::string("elv-test-log 1\nfingerprint 000000000000002A \n"),
          std::string("elv-test-log 1\nfingerprint 0x0000000000002a\n")}) {
        spit(path, header + records);
        elv::RecordLog log = test_log(path);
        EXPECT_THROW(replay(log), elv::UsageError) << header;
        EXPECT_EQ(slurp(path), header + records) << "left untouched";
    }
}

TEST(RecordLog, OtherVersionIsReturnedAndNothingReplayed)
{
    const std::string path = log_path("version");
    const std::string old = "elv-test-log 0\nfingerprint 000000000000002a\n"
                            "alpha 1 ~f47b7909acc18eca\n";
    spit(path, old);
    elv::RecordLog log = test_log(path);
    bool applied = false;
    const auto other = log.load([&](const std::string &) {
        applied = true;
        return true;
    });
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(*other, "elv-test-log 0");
    EXPECT_FALSE(applied);
    EXPECT_EQ(slurp(path), old);
    // The caller may discard it; the next append starts afresh.
    log.reset();
    log.append("beta");
    EXPECT_EQ(slurp(path), kHeaderBlock + "beta ~f4039baf9ff2ba79\n");
}

TEST(RecordLog, FingerprintMismatchIsFatalAndCarriesTheHint)
{
    const std::string path = log_path("fingerprint");
    spit(path, kTwoRecords);
    elv::RecordLog log(path, "elv-test-log 1", 0x2b);
    log.set_mismatch_hint([](std::uint64_t stored) {
        return stored == 0x2a ? "likely changed: seed" : "";
    });
    try {
        log.load([](const std::string &) { return true; });
        FAIL() << "expected the mismatched log to be refused";
    } catch (const elv::UsageError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("000000000000002a"), std::string::npos) << what;
        EXPECT_NE(what.find("000000000000002b"), std::string::npos) << what;
        EXPECT_NE(what.find("likely changed: seed"), std::string::npos)
            << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
    }
}

TEST(RecordLog, TornFinalRecordIsDroppedAtEveryByteOffset)
{
    const std::string path = log_path("torn_tail");
    const std::string full = kTwoRecords + "gamma ~3d9b7fc827fa9ec8\n";
    for (std::size_t cut = kTwoRecords.size(); cut < full.size(); ++cut) {
        spit(path, full.substr(0, cut));
        elv::RecordLog log = test_log(path);
        EXPECT_EQ(replay(log),
                  (std::vector<std::string>{"alpha 1", "beta"}))
            << "cut " << cut;
        EXPECT_EQ(slurp(path), kTwoRecords) << "cut " << cut;
        // The next append lands on a clean line and loads back whole.
        log.append("gamma");
        EXPECT_EQ(slurp(path), full) << "cut " << cut;
    }
}

TEST(RecordLog, FinalRecordTheParserRefusesIsDropped)
{
    const std::string path = log_path("refused");
    spit(path, kTwoRecords);
    elv::RecordLog log = test_log(path);
    std::vector<std::string> bodies;
    EXPECT_FALSE(log.load([&](const std::string &body) {
                        bodies.push_back(body);
                        return body != "beta";
                    })
                     .has_value());
    EXPECT_EQ(bodies, (std::vector<std::string>{"alpha 1", "beta"}));
    EXPECT_EQ(slurp(path), kHeaderBlock + "alpha 1 ~f47b7909acc18eca\n");
}

TEST(RecordLog, BadInteriorRecordIsFatal)
{
    const std::string path = log_path("interior");
    const std::string records[] = {"alpha 1 ~f47b7909acc18eca\n",
                                   "beta ~f4039baf9ff2ba79\n"};
    for (const std::string &damaged :
         {std::string("alpha 2 ~f47b7909acc18eca\n"),
          std::string("alpha 1 ~f47b7909acc18ec\n"),
          std::string("alpha 1\n")}) {
        spit(path, kHeaderBlock + damaged + records[1]);
        elv::RecordLog log = test_log(path);
        EXPECT_THROW(replay(log), elv::UsageError) << damaged;
    }
    // A record the parser refuses is corruption too, unless final.
    spit(path, kTwoRecords);
    elv::RecordLog log = test_log(path);
    EXPECT_THROW(log.load([](const std::string &body) {
        return body != "alpha 1";
    }),
                 elv::UsageError);
}

TEST(RecordLog, ChecksumTokenRoundTripsAndRejectsDamage)
{
    std::string line = elv::record_with_checksum("cnr 0 0x1p-1 4 0 0");
    EXPECT_EQ(line, "cnr 0 0x1p-1 4 0 0 ~14d82fe4e860b323");
    EXPECT_TRUE(elv::strip_record_checksum(line));
    EXPECT_EQ(line, "cnr 0 0x1p-1 4 0 0");
    for (std::string damaged :
         {std::string("cnr 0 0x1p-1 4 0 1 ~14d82fe4e860b323"),
          std::string("cnr 0 0x1p-1 4 0 0 ~14d82fe4e860b32"),
          std::string("cnr 0 0x1p-1 4 0 0  14d82fe4e860b323"),
          std::string("cnr 0 0x1p-1 4 0 0 ~+4d82fe4e860b323"),
          std::string(" ~14d82fe4e860b323"), std::string("")})
        EXPECT_FALSE(elv::strip_record_checksum(damaged)) << damaged;
}

// --- validate_distribution ---------------------------------------------

using elv::DistributionError;
using elv::is_valid_distribution;
using elv::validate_distribution;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ValidateDistribution, AcceptsExactDistribution)
{
    std::vector<double> probs = {0.25, 0.25, 0.5};
    EXPECT_TRUE(is_valid_distribution(probs));
    EXPECT_NO_THROW(validate_distribution(probs, "test"));
}

TEST(ValidateDistribution, RejectsNaNAndInf)
{
    for (const double poison : {kNaN, kInf, -kInf}) {
        std::vector<double> probs = {0.5, poison, 0.5};
        EXPECT_FALSE(is_valid_distribution(probs));
        EXPECT_THROW(validate_distribution(probs, "test"),
                     DistributionError);
    }
}

TEST(ValidateDistribution, RejectsNegativeMass)
{
    std::vector<double> probs = {0.6, -0.2, 0.6};
    EXPECT_THROW(validate_distribution(probs, "test"), DistributionError);
}

TEST(ValidateDistribution, RejectsEmptyAndZeroMass)
{
    std::vector<double> empty;
    EXPECT_THROW(validate_distribution(empty, "test"), DistributionError);
    std::vector<double> zeros = {0.0, 0.0};
    EXPECT_THROW(validate_distribution(zeros, "test"), DistributionError);
}

TEST(ValidateDistribution, RepairsDrift)
{
    std::vector<double> drifted = {0.3, 0.3, 0.3}; // sums to 0.9
    validate_distribution(drifted, "test");
    double sum = 0.0;
    for (double p : drifted)
        sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ValidateDistribution, ClipsTinyNegativesUnderRenormalize)
{
    std::vector<double> probs = {0.5, -1e-12, 0.5};
    validate_distribution(probs, "test");
    EXPECT_GE(probs[1], 0.0);
    EXPECT_TRUE(is_valid_distribution(probs, 1e-9));
}

TEST(ValidateDistribution, ErrorNamesTheProducer)
{
    std::vector<double> probs = {kNaN};
    try {
        validate_distribution(probs, "unit-test producer");
        FAIL() << "expected DistributionError";
    } catch (const DistributionError &e) {
        EXPECT_NE(std::string(e.what()).find("unit-test producer"),
                  std::string::npos);
    }
}

// --- RetryPolicy ---------------------------------------------------------

using elv::RetryPolicy;

TEST(RetryPolicy, BackoffGrowsExponentiallyWithoutJitter)
{
    RetryPolicy policy;
    policy.initial_backoff_ms = 100.0;
    policy.backoff_multiplier = 2.0;
    policy.max_backoff_ms = 550.0;
    policy.jitter = 0.0;
    Rng rng(7);
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(0, rng), 100.0);
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(1, rng), 200.0);
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(2, rng), 400.0);
    // Capped by max_backoff_ms from here on.
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(3, rng), 550.0);
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(9, rng), 550.0);
}

TEST(RetryPolicy, FullJitterStaysWithinBoundedWindow)
{
    RetryPolicy policy;
    policy.initial_backoff_ms = 100.0;
    policy.jitter = 0.25;
    Rng rng(11);
    // Bounded full jitter draws from [nominal * (1 - j), nominal]: it
    // only ever shortens the delay, never stretches past the nominal.
    bool below_nominal = false;
    for (int i = 0; i < 200; ++i) {
        const double d = policy.backoff_delay_ms(0, rng);
        EXPECT_GE(d, 75.0);
        EXPECT_LE(d, 100.0);
        below_nominal |= d < 99.0;
    }
    EXPECT_TRUE(below_nominal);
}

TEST(RetryPolicy, ClassicFullJitterSpansDownToZero)
{
    RetryPolicy policy;
    policy.initial_backoff_ms = 100.0;
    policy.jitter = 1.0; // classic full jitter: [0, nominal]
    Rng rng(13);
    double lo = 1e300, hi = 0.0;
    for (int i = 0; i < 500; ++i) {
        const double d = policy.backoff_delay_ms(0, rng);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 100.0);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    // The window is actually exercised, not collapsed.
    EXPECT_LT(lo, 20.0);
    EXPECT_GT(hi, 80.0);
}

TEST(RetryPolicy, FullJitterDeterministicGivenSeed)
{
    RetryPolicy policy;
    Rng a(42), b(42);
    for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(i % 5, a),
                         policy.backoff_delay_ms(i % 5, b));
}

// --- CancelToken ------------------------------------------------------

TEST(CancelToken, HugeDeadlinesSaturateInsteadOfExpiring)
{
    // From about 9.3e9 s the nanosecond tick count overflows; a budget
    // that long (or infinite) must arm a deadline that never expires.
    for (const double seconds :
         {1e10, 1e19, 1e300, std::numeric_limits<double>::infinity()}) {
        elv::CancelToken token;
        token.set_deadline_after(seconds);
        EXPECT_FALSE(token.cancelled()) << seconds;
        EXPECT_STREQ(token.reason(), "none") << seconds;
    }
    elv::CancelToken token;
    token.set_deadline_after(std::nan(""));
    EXPECT_FALSE(token.deadline_expired());
    token.set_deadline_after(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(token.deadline_expired());
    EXPECT_STREQ(token.reason(), "deadline");
}

} // namespace
