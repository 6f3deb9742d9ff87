/**
 * @file
 * Seeded byte/line mutator shared by the hostile-input tests: the
 * durable logs (journal, manifests), the run spec's JSON codec and the
 * circuit text format.
 */
#pragma once

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace elv::test {

inline std::vector<std::string>
split_lines(const std::string &blob)
{
    std::vector<std::string> lines;
    std::istringstream in(blob);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/**
 * 1-3 seeded edits of `blob`: a bit flip, a truncation, a duplicated
 * line, or a line spliced in from `donors`, inserted at a line start.
 */
inline std::string
mutate(const std::string &blob, const std::vector<std::string> &donors,
       std::mt19937_64 &rng)
{
    std::string out = blob;
    for (std::uint64_t edits = 1 + rng() % 3; edits > 0 && !out.empty();
         --edits) {
        switch (rng() % 4) {
        case 0: {
            const std::size_t at = rng() % out.size();
            out[at] = static_cast<char>(out[at] ^ (1 << (rng() % 8)));
            break;
        }
        case 1:
            out.resize(rng() % out.size());
            break;
        default: {
            const std::vector<std::string> own = split_lines(out);
            const std::vector<std::string> &pool =
                own.empty() || rng() % 2 ? donors : own;
            std::vector<std::size_t> starts{0};
            for (std::size_t at = out.find('\n'); at != std::string::npos;
                 at = out.find('\n', at + 1))
                starts.push_back(at + 1);
            out.insert(starts[rng() % starts.size()],
                       pool[rng() % pool.size()] + "\n");
        }
        }
    }
    return out;
}

} // namespace elv::test
