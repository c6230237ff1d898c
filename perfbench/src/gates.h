#pragma once

// Correctness gates. Each returns an empty string when the output passes and
// a one-line reason when it does not; a workload counts every non-empty
// answer as a failed job and marks the run incorrect. They are pure
// functions of the documents and counts handed to them, so the self-test can
// feed them deliberately corrupted inputs.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/sampler.h"

namespace perfbench {

/// A job document (service::to_json, timing off) must be a done job whose
/// protected circuit is exactly as deep as the original: TetrisLock's
/// zero depth overhead.
std::string check_zero_depth_overhead(const std::string& doc);

/// A wide_fused document: done, and noise-free verification restored every
/// shot — accuracy_original == accuracy_restored == 1 and tvd_restored == 0.
std::string check_exact_restore(const std::string& doc);

/// Sampled counts must put every shot on `expected` (the bit-propagation
/// outcome of the source circuit), so their mode is `expected` too.
std::string check_mode(const tetris::sim::Counts& counts,
                       const std::string& expected);

/// Wire bytes must equal the in-process document byte for byte.
std::string check_byte_equal(const std::string& wire, const std::string& local);

/// Order-sensitive FNV-1a digest of a document list, as 16 hex digits.
std::string digest_documents(const std::vector<std::string>& docs);

/// The digest of the pinned table1 check pass recorded for `simd_mode`
/// (empty when none is recorded for that mode).
std::string recorded_digest(const std::string& simd_mode);

/// The pinned check-pass digest must equal the one recorded for the host's
/// SIMD mode: the byte-identity contract of unfused runs.
std::string check_digest(const std::string& simd_mode, const std::string& digest);

/// Repeats of one (benchmark, seed) pair must carry the same result: the
/// first document of a pair is remembered by the digest of its "result"
/// object, later ones must match it. Cache hits and recomputations alike.
class RepeatLedger {
 public:
  std::string check(const std::string& benchmark, std::uint64_t seed,
                    const std::string& doc);

 private:
  std::map<std::pair<std::string, std::uint64_t>, std::string> seen_;
};

/// Runs every gate on a genuine document and on deliberately corrupted
/// copies; returns the number of gates that failed to behave (0 = pass).
int self_test();

}  // namespace perfbench
