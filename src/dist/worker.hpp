/**
 * @file
 * Worker half of the distributed search: serves one coordinator
 * conversation (see wire.hpp) over any line transport. The worker is
 * deliberately stateless beyond its configured search: it regenerates
 * candidates from (spec, index), evaluates CNR/RepCap with the exact
 * per-candidate stage evaluators of core/search — same seeds, same
 * code — and streams hexfloat-encoded records back, which is what
 * makes a merged ranking bit-identical to a single-process run.
 *
 * Used by examples/elivagar_worker.cpp in both of its modes: stdio
 * pipes under a fork/exec coordinator, and one TCP connection at a
 * time under --serve.
 */
#pragma once

namespace elv::dist {

/**
 * Serve one coordinator conversation to completion (shutdown request
 * or EOF), reading requests from `in_fd` and writing events to
 * `out_fd` — stdin/stdout pipes, or one accepted socket for both.
 * Returns the process exit code: 0 for a clean conversation, 1 when
 * the conversation had to be abandoned (protocol violation, evaluation
 * failure — reported to the coordinator as an error event first
 * whenever the transport still works).
 */
int serve_worker(int in_fd, int out_fd);

} // namespace elv::dist
