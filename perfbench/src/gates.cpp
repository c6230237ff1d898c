#include "gates.h"

#include <cstdio>
#include <iostream>

#include "common/hash.h"
#include "common/json.h"
#include "revlib/benchmarks.h"
#include "service/serialize.h"
#include "service/service.h"

namespace perfbench {

namespace json = tetris::json;

namespace {

/// Parses `doc` and returns its "result" object, or nullptr with `why` set
/// when the document is malformed or the job is not done.
const json::Value* done_result(const json::Value& parsed, std::string& why) {
  if (!parsed.is_object()) {
    why = "document is not a JSON object";
    return nullptr;
  }
  const json::Value* state = parsed.find("state");
  if (!state || !state->is_string() || state->as_string() != "done") {
    why = "job not done";
    return nullptr;
  }
  const json::Value* result = parsed.find("result");
  if (!result || !result->is_object()) {
    why = "done job without a result";
    return nullptr;
  }
  return result;
}

std::string with_parsed(const std::string& doc,
                        std::string (*fn)(const json::Value&)) {
  try {
    return fn(json::parse(doc));
  } catch (const std::exception& e) {
    return std::string("unparseable document: ") + e.what();
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string check_zero_depth_overhead(const std::string& doc) {
  return with_parsed(doc, [](const json::Value& parsed) -> std::string {
    std::string why;
    const json::Value* r = done_result(parsed, why);
    if (!r) return why;
    const auto original = r->at("depth_original").as_int();
    const auto obfuscated = r->at("depth_obfuscated").as_int();
    if (original != obfuscated) {
      return "depth overhead: original " + std::to_string(original) +
             ", obfuscated " + std::to_string(obfuscated);
    }
    return {};
  });
}

std::string check_exact_restore(const std::string& doc) {
  return with_parsed(doc, [](const json::Value& parsed) -> std::string {
    std::string why;
    const json::Value* r = done_result(parsed, why);
    if (!r) return why;
    if (r->at("accuracy_original").as_number() != 1.0 ||
        r->at("accuracy_restored").as_number() != 1.0 ||
        r->at("tvd_restored").as_number() != 0.0) {
      return "noise-free verification lost shots";
    }
    return {};
  });
}

std::string check_mode(const tetris::sim::Counts& counts,
                       const std::string& expected) {
  if (counts.histogram.empty()) return "empty histogram";
  if (counts.mode() != expected) {
    return "sampled mode " + counts.mode() + " != bit-propagation outcome " +
           expected;
  }
  if (counts.count(expected) != counts.shots) {
    return "shots off the deterministic outcome";
  }
  return {};
}

std::string check_byte_equal(const std::string& wire, const std::string& local) {
  if (wire == local) return {};
  std::size_t at = 0;
  while (at < wire.size() && at < local.size() && wire[at] == local[at]) ++at;
  return "wire document differs from in-process document at byte " +
         std::to_string(at);
}

std::string digest_documents(const std::vector<std::string>& docs) {
  tetris::Fnv64 h;
  for (const std::string& doc : docs) h.mix(doc);
  return hex64(h.digest());
}

std::string recorded_digest(const std::string& simd_mode) {
  // Regenerate with `perfbench --print-digest` (and TETRIS_SIMD=scalar for
  // the scalar entry) only when a change is meant to alter result bytes.
  static const std::map<std::string, std::string> kRecorded = {
      {"avx2", "0cce6ba9ad05d06d"},
      {"scalar", "0cce6ba9ad05d06d"},
  };
  auto it = kRecorded.find(simd_mode);
  return it == kRecorded.end() ? std::string() : it->second;
}

std::string check_digest(const std::string& simd_mode, const std::string& digest) {
  const std::string recorded = recorded_digest(simd_mode);
  if (recorded.empty()) return "no digest recorded for SIMD mode " + simd_mode;
  if (recorded != digest) {
    return "check-pass digest " + digest + " != recorded " + recorded +
           " (" + simd_mode + ")";
  }
  return {};
}

std::string RepeatLedger::check(const std::string& benchmark,
                                std::uint64_t seed, const std::string& doc) {
  const std::size_t at = doc.find("\"result\"");
  if (at == std::string::npos) return "document without a result";
  const std::string digest = digest_documents({doc.substr(at)});
  auto [it, inserted] = seen_.emplace(std::make_pair(benchmark, seed), digest);
  if (!inserted && it->second != digest) {
    return "repeat of (" + benchmark + ", " + std::to_string(seed) +
           ") returned a different result";
  }
  return {};
}

int self_test() {
  namespace service = tetris::service;
  int broken = 0;
  auto expect = [&](bool ok, const char* what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++broken;
  };
  auto replace = [](std::string s, const std::string& from, const std::string& to) {
    const std::size_t at = s.find(from);
    if (at != std::string::npos) s.replace(at, from.size(), to);
    return s;
  };

  // One genuine noise-free document: 4mod5 on an all-to-all ideal device.
  const auto& b = tetris::revlib::get_benchmark("4mod5");
  tetris::lock::FlowConfig cfg;
  cfg.shots = 64;
  auto job = tetris::lock::make_flow_job(b.name, b.circuit, b.measured, cfg);
  job.target.noise = tetris::sim::NoiseModel::ideal();
  service::ServiceConfig scfg;
  scfg.num_threads = 1;
  service::Service svc(scfg);
  const service::JobOutcome outcome = svc.submit(job, 11).wait();
  const std::string doc = service::to_json(outcome, false);

  expect(check_zero_depth_overhead(doc).empty(), "depth gate accepts a genuine document");
  const std::string deeper = replace(
      doc, "\"depth_obfuscated\": " + std::to_string(outcome.result.depth_obfuscated),
      "\"depth_obfuscated\": " + std::to_string(outcome.result.depth_obfuscated + 1));
  expect(deeper != doc && !check_zero_depth_overhead(deeper).empty(),
         "depth gate rejects a document with depth overhead");
  expect(!check_zero_depth_overhead(replace(doc, "\"done\"", "\"failed\"")).empty(),
         "depth gate rejects a failed job");
  expect(!check_zero_depth_overhead(doc.substr(0, doc.size() / 2)).empty(),
         "depth gate rejects a truncated document");

  expect(check_exact_restore(doc).empty(), "restore gate accepts a genuine document");
  const std::string lossy =
      replace(doc, "\"accuracy_restored\": 1", "\"accuracy_restored\": 0.999");
  expect(lossy != doc && !check_exact_restore(lossy).empty(),
         "restore gate rejects accuracy below 1");

  tetris::sim::Counts counts;
  counts.shots = 10;
  counts.histogram["0101"] = 10;
  expect(check_mode(counts, "0101").empty(), "mode gate accepts exact counts");
  counts.histogram["0101"] = 9;
  counts.histogram["0111"] = 1;
  expect(!check_mode(counts, "0101").empty(), "mode gate rejects a stray shot");
  expect(!check_mode(counts, "0111").empty(), "mode gate rejects a wrong mode");

  expect(check_byte_equal(doc, doc).empty(), "byte gate accepts identical bytes");
  std::string flipped = doc;
  flipped[flipped.size() / 2] ^= 1;
  expect(!check_byte_equal(flipped, doc).empty(), "byte gate rejects one flipped bit");

  const std::string recorded = recorded_digest("avx2");
  expect(check_digest("avx2", recorded).empty(), "digest gate accepts the recorded digest");
  std::string other = recorded;
  other[0] = other[0] == '0' ? '1' : '0';
  expect(!check_digest("avx2", other).empty(), "digest gate rejects any other digest");
  expect(!check_digest("no-such-mode", recorded).empty(),
         "digest gate rejects a mode without a record");

  RepeatLedger ledger;
  expect(ledger.check("4mod5", 11, doc).empty(), "repeat gate accepts a first result");
  expect(ledger.check("4mod5", 11, replace(doc, "\"cache_hit\": false",
                                           "\"cache_hit\": true"))
             .empty(),
         "repeat gate accepts the same result served from cache");
  expect(!ledger.check("4mod5", 11, lossy).empty(),
         "repeat gate rejects a different result for the same pair");
  return broken;
}

}  // namespace perfbench
