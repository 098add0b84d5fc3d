// Measurement half of the repository benchmark; run.py builds this binary,
// calls it in the modes below and turns the samples it prints (one JSON
// object per line) into the benchmark's metrics.
//
//   setup   --workload W --seed N --rounds R
//       Times plan_world(spec) between two host-speed calibrations and makes
//       no other call, so no in-process cache can carry work between set-up
//       and a measured run.
//   record  --workload W --seed N --rounds R --spans FILE [--out FILE]
//       Runs the workload's online scenario once (storm_online for
//       replay_audit) with obs::TraceWriter armed, untimed: its round.settle
//       spans give exact settle quantiles, and with --out it writes the
//       encoded net::MessageTrace that replay_audit re-verifies. Its own
//       process, so its memory never counts as the measured run's.
//   measure --workload W --seed N --rounds R --seconds S [--replay FILE]
//       Repeats the workload's call (run_scenario or replay_trace)
//       with tracing off for S seconds: one untimed warm-up call, then at
//       least kMinCalls timed ones. Prints wall and CPU time per call, the
//       host-speed calibration around it, and the outputs the correctness
//       checks read, then the peak RSS.
//   layers  --workload W --seed N --rounds R --seconds S [--replay FILE]
//           --spans FILE
//       The traced run: untraced workload calls (obs counter deltas, the
//       overhead baseline), then traced calls with obs::TraceWriter armed
//       and, on the online workloads, a MessageTrace recorded; then each
//       layer's public function timed on that workload's own inputs (its
//       keys from plan_world, the payloads and channel mix of its trace).
//       The benchmark's own spans ("bench.*") share the span file.
//
// Every mode first refuses builds whose numbers would mislead: sanitizers,
// no optimisation, or obs hooks compiled out (every counter would read 0).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/bundle_aggregation.h"
#include "core/keys.h"
#include "core/min_protocol.h"
#include "core/pvr_speaker.h"
#include "core/verify_context.h"
#include "crypto/drbg.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "net/message_trace.h"
#include "net/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/replay.h"
#include "scenario/runner.h"
#include "scenario/world.h"

namespace {

using namespace pvr;

// Three engine workers plus the simulator thread fill a 4-thread host.
constexpr std::size_t kWorkers = 3;
// Enough calls per run for a median and a repeat-fingerprint check.
constexpr std::size_t kMinCalls = 3;
// Inputs per timed pass of a layer microbenchmark; larger input sets are
// subsampled evenly so the pass keeps the workload's mix.
constexpr std::size_t kMaxPassInputs = 512;

// ---- Output -----------------------------------------------------------

class JsonLine {
 public:
  JsonLine& num(std::string_view key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return raw(key, buffer);
  }
  JsonLine& count(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& str(std::string_view key, std::string_view value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonLine& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  void print() const { std::printf("%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

// ---- Build guard --------------------------------------------------------

[[nodiscard]] std::string build_refusal() {
  const std::string_view flags = PERFBENCH_CXX_FLAGS;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized_here = true;
#else
  const bool sanitized_here = false;
#endif
  if (sanitized_here || std::string_view(PERFBENCH_SANITIZE).size() > 0 ||
      flags.find("-fsanitize") != std::string_view::npos) {
    return "built with a sanitizer";
  }
#ifndef __OPTIMIZE__
  return "built without optimisation";
#endif
  // The last -O flag wins; none at all means -O0.
  std::string last_opt = "-O0";
  for (std::size_t at = flags.find("-O"); at != std::string_view::npos;
       at = flags.find("-O", at + 2)) {
    const std::size_t end = flags.find(' ', at);
    last_opt = std::string(flags.substr(at, end == std::string_view::npos
                                                ? std::string_view::npos
                                                : end - at));
  }
  if (last_opt == "-O0") return "built without optimisation";
  // Every per-layer count comes from an obs counter; an obs-less library
  // reads 0 everywhere. Probe the library itself, not just this TU's macro.
  const std::uint64_t before =
      obs::MetricsRegistry::global().hot.crypto_bytes_hashed.value();
  (void)crypto::sha256(std::string_view("perfbench obs probe"));
  if (!obs::kCompiledIn ||
      obs::MetricsRegistry::global().hot.crypto_bytes_hashed.value() == before) {
    return "built with -DPVR_OBS=OFF (obs counters read 0)";
  }
  return {};
}

void describe_build(JsonLine& line) {
  line.str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .count("hw_threads", std::thread::hardware_concurrency())
      .count("workers", kWorkers);
}

// ---- Clocks -------------------------------------------------------------

[[nodiscard]] double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU (user + sys, every thread).
[[nodiscard]] double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

[[nodiscard]] double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Host speed ----

volatile std::uint64_t g_calibration_sink = 0;

// Wall seconds of a fixed 8-limb schoolbook multiply-accumulate, shaped like
// the bignum inner loops that dominate the program's CPU. On a shared host
// the same work swings up to ~2x in speed over seconds to minutes (another
// tenant on the sibling hardware thread), and this kernel's time tracks
// rsa_sign's closely (correlation ~0.97 on a 4-vCPU KVM host), while a
// register-only multiply chain does not. run.py times it right before and
// after each measured call to scale that call to a reference host speed.
// The kernel is benchmark code, not program code: a change to the program
// cannot make it faster, so it must never change.
[[nodiscard]] double calibration_seconds() {
  const double t0 = wall_seconds();
  std::uint64_t a[8];
  std::uint64_t b[8];
  std::uint64_t r[16] = {};
  for (std::uint64_t i = 0; i < 8; ++i) {
    a[i] = 0x9E3779B97F4A7C15ull * (i + 1);
    b[i] = 0xC2B2AE3D27D4EB4Full * (i + 3);
  }
  for (int pass = 0; pass < 200'000; ++pass) {
    for (std::uint64_t& limb : r) limb = 0;
    for (int i = 0; i < 8; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < 8; ++j) {
        carry += static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j];
        r[i + j] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
      r[i + 8] = static_cast<std::uint64_t>(carry);
    }
    a[0] ^= r[3];
  }
  g_calibration_sink = r[5];
  return wall_seconds() - t0;
}

// ---- Workloads ----------------------------------------------------------

struct Workload {
  scenario::ScenarioSpec spec;
  bool replay = false;  // replay_trace over a recorded storm_online trace
};

[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed,
                                     std::size_t rounds) {
  Workload workload;
  if (name == "storm_online" || name == "replay_audit") {
    workload.spec = scenario::named_scenario("equivocation_storm", seed, rounds);
    workload.replay = name == "replay_audit";
  } else if (name == "chaos_online") {
    workload.spec = scenario::named_scenario("drop_replay_chaos", seed, rounds);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  workload.spec.online = true;
  workload.spec.workers = kWorkers;
  return workload;
}

struct WorkloadCall {
  scenario::ScenarioReport report;
  double wall_s = 0;
  double cpu_s = 0;
};

[[nodiscard]] WorkloadCall call_workload(const Workload& workload,
                                         const net::MessageTrace* replay,
                                         net::MessageTrace* record) {
  const obs::TraceSpan span("bench.workload_call", "bench");
  WorkloadCall call;
  const double cpu0 = cpu_seconds();
  const double t0 = wall_seconds();
  call.report = workload.replay
                    ? scenario::replay_trace(workload.spec, *replay, kWorkers)
                    : scenario::run_scenario(workload.spec, record);
  call.wall_s = wall_seconds() - t0;
  call.cpu_s = cpu_seconds() - cpu0;
  return call;
}

// The report fields the correctness checks and end-to-end metrics read.
void describe_report(JsonLine& line, const scenario::ScenarioReport& report) {
  line.str("fingerprint", report.fingerprint())
      .count("rounds", report.rounds_started)
      .num("detection_rate", report.detection_rate)
      .count("attacked_rounds", report.attacked_rounds)
      .count("detected_rounds", report.detected_rounds)
      .count("false_evidence", report.false_evidence)
      .count("audit_failures", report.audit_failures)
      .count("verify_failures", report.verify_failures)
      .count("bytes_total", report.bytes_total)
      .count("p50_settle_us", report.p50_settle_us)
      .count("p99_settle_us", report.p99_settle_us)
      .count("settle_horizon_us", report.settle_horizon_us);
}

[[nodiscard]] net::MessageTrace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read trace " + path);
  const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  return net::MessageTrace::decode(bytes);
}

// ---- Layer inputs -------------------------------------------------------

// One pvr.* delivery decoded the way PvrNode::on_message decodes it.
struct Decoded {
  std::uint8_t hops = 0;                 // gossip channels
  core::SignedMessage envelope;          // every channel but pvr.bundle.agg
  core::AggregatedBundleMessage agg;     // pvr.bundle.agg
  core::AggregatedBundle root;           // pvr.gossip.root, pvr.bundle.agg
  std::vector<core::CommitmentBundle> bundles;  // bundle/gossip/agg openings
  core::InputAnnouncement input;
  core::RevealToProvider reveal_n;
  core::RevealToRecipient reveal_b;
  core::ExportStatement export_statement;
};

// Throws std::out_of_range on a malformed payload, like the node's decoders.
[[nodiscard]] Decoded decode_delivery(std::string_view channel,
                                      std::span<const std::uint8_t> payload) {
  Decoded out;
  if (channel == core::kBundleAggChannel) {
    out.agg = core::AggregatedBundleMessage::decode(payload);
    out.root = core::AggregatedBundle::decode(out.agg.signed_root.payload);
    for (const core::SignedBundleOpening& opening : out.agg.openings) {
      out.bundles.push_back(core::CommitmentBundle::decode(opening.bundle.payload));
    }
    return out;
  }
  const bool gossip =
      channel == core::kGossipChannel || channel == core::kGossipRootChannel;
  if (gossip) {
    if (payload.empty()) throw std::out_of_range("empty gossip payload");
    out.hops = payload.front();
    payload = payload.subspan(1);
  }
  out.envelope = core::SignedMessage::decode(payload);
  const std::span<const std::uint8_t> inner(out.envelope.payload);
  if (channel == core::kInputChannel) {
    out.input = core::InputAnnouncement::decode(inner);
  } else if (channel == core::kBundleChannel || channel == core::kGossipChannel) {
    out.bundles.push_back(core::CommitmentBundle::decode(inner));
  } else if (channel == core::kGossipRootChannel) {
    out.root = core::AggregatedBundle::decode(inner);
  } else if (channel == core::kRevealProviderChannel) {
    out.reveal_n = core::RevealToProvider::decode(inner);
  } else if (channel == core::kRevealRecipientChannel) {
    out.reveal_b = core::RevealToRecipient::decode(inner);
  } else if (channel == core::kExportChannel) {
    out.export_statement = core::ExportStatement::decode(inner);
  } else {
    throw std::invalid_argument("no decoder for channel " + std::string(channel));
  }
  return out;
}

// Re-encodes a decoded delivery the way the sender built it: inner payload,
// signed envelope, then the gossip hop byte. Returns the wire byte count.
[[nodiscard]] std::size_t encode_delivery(std::string_view channel,
                                          const Decoded& decoded) {
  std::size_t bytes = 0;
  if (channel == core::kBundleAggChannel) {
    for (const core::CommitmentBundle& bundle : decoded.bundles) {
      bytes += bundle.encode().size();
    }
    bytes += decoded.root.encode().size();
    return bytes + decoded.agg.encode().size();
  }
  std::vector<std::uint8_t> inner;
  if (channel == core::kInputChannel) {
    inner = decoded.input.encode();
  } else if (channel == core::kBundleChannel || channel == core::kGossipChannel) {
    inner = decoded.bundles.front().encode();
  } else if (channel == core::kGossipRootChannel) {
    inner = decoded.root.encode();
  } else if (channel == core::kRevealProviderChannel) {
    inner = decoded.reveal_n.encode();
  } else if (channel == core::kRevealRecipientChannel) {
    inner = decoded.reveal_b.encode();
  } else {
    inner = decoded.export_statement.encode();
  }
  const core::SignedMessage envelope{.signer = decoded.envelope.signer,
                                     .payload = std::move(inner),
                                     .signature = decoded.envelope.signature};
  std::vector<std::uint8_t> wire = envelope.encode();
  if (channel == core::kGossipChannel || channel == core::kGossipRootChannel) {
    wire.insert(wire.begin(), decoded.hops);
  }
  return bytes + wire.size();
}

struct ChannelInputs {
  std::vector<std::span<const std::uint8_t>> payloads;  // every delivery
  std::vector<Decoded> decoded;                         // same order
};

struct LayerInputs {
  std::map<std::string, ChannelInputs> channels;  // pvr.* channels only
  // Every distinct signed envelope the deliveries carry, in trace order.
  std::vector<core::SignedMessage> signed_messages;
  std::vector<net::SimTime> delivery_times;  // every delivery, sorted
};

[[nodiscard]] LayerInputs collect_inputs(const net::MessageTrace& trace) {
  LayerInputs inputs;
  std::set<crypto::Digest> seen_signatures;
  const auto keep = [&](const core::SignedMessage& message) {
    if (seen_signatures.insert(crypto::sha256_uncounted(message.signature)).second) {
      inputs.signed_messages.push_back(message);
    }
  };
  for (const net::TraceEntry& entry : trace.entries) {
    inputs.delivery_times.push_back(entry.at);
    const std::string& channel = entry.message.channel;
    if (channel.rfind("pvr.", 0) != 0) continue;
    ChannelInputs& slot = inputs.channels[channel];
    slot.payloads.emplace_back(entry.message.payload);
    slot.decoded.push_back(decode_delivery(channel, entry.message.payload));
    const Decoded& decoded = slot.decoded.back();
    if (channel == core::kBundleAggChannel) {
      keep(decoded.agg.signed_root);
      for (const core::SignedBundleOpening& opening : decoded.agg.openings) {
        keep(opening.bundle);
      }
    } else {
      keep(decoded.envelope);
    }
  }
  std::sort(inputs.delivery_times.begin(), inputs.delivery_times.end());
  return inputs;
}

// Evenly spaced indices into [0, n), at most kMaxPassInputs of them.
[[nodiscard]] std::vector<std::size_t> pass_indices(std::size_t n) {
  const std::size_t take = std::min(n, kMaxPassInputs);
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < take; ++i) indices.push_back(i * n / take);
  return indices;
}

[[nodiscard]] double median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

// Times passes of `op` over `indices` until `budget_s` has passed (at least
// three passes) and returns the median seconds per op.
[[nodiscard]] double median_op_seconds(const char* span_name,
                                       const std::vector<std::size_t>& indices,
                                       double budget_s,
                                       const std::function<void(std::size_t)>& op,
                                       std::string span_args = {}) {
  if (indices.empty()) return 0.0;
  const obs::TraceSpan span(span_name, "bench", std::move(span_args));
  std::vector<double> per_op;
  const double start = wall_seconds();
  while (per_op.size() < 3 || wall_seconds() - start < budget_s) {
    const double t0 = wall_seconds();
    for (const std::size_t index : indices) op(index);
    per_op.push_back((wall_seconds() - t0) / static_cast<double>(indices.size()));
  }
  return median(std::move(per_op));
}

[[nodiscard]] std::uint64_t scalar(const obs::MetricsSnapshot& snapshot,
                                   std::string_view name) {
  for (const obs::MetricsSnapshot::Entry& entry : snapshot.scalars) {
    if (entry.name == name) return entry.value;
  }
  throw std::logic_error("obs snapshot lacks " + std::string(name));
}

[[nodiscard]] const obs::HistogramSnapshot& histogram(
    const obs::MetricsSnapshot& snapshot, std::string_view name) {
  for (const obs::MetricsSnapshot::HistEntry& entry : snapshot.histograms) {
    if (entry.name == name) return entry.hist;
  }
  throw std::logic_error("obs snapshot lacks " + std::string(name));
}

// ---- Modes --------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload = "storm_online";
  std::uint64_t seed = 1;
  std::size_t rounds = 0;
  double seconds = 0;
  std::string replay_path;
  std::string out_path;
  std::string spans_path;
};

int run_setup(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed, args.rounds);
  const double calib_before_s = calibration_seconds();
  const double t0 = wall_seconds();
  const scenario::WorldPlan plan = scenario::plan_world(workload.spec);
  const double setup_s = wall_seconds() - t0;
  JsonLine()
      .num("setup_s", setup_s)
      .num("calib_before_s", calib_before_s)
      .num("calib_after_s", calibration_seconds())
      .count("keys", plan.participants.size())
      .print();
  return 0;
}

int run_record(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed, args.rounds);
  obs::TraceWriter& writer = obs::TraceWriter::global();
  if (!writer.open(args.spans_path)) {
    throw std::runtime_error("cannot arm the trace writer");
  }
  net::MessageTrace trace;
  const scenario::ScenarioReport report = scenario::run_scenario(
      workload.spec, args.out_path.empty() ? nullptr : &trace);
  if (!writer.close()) throw std::runtime_error("cannot write " + args.spans_path);
  if (!args.out_path.empty()) {
    const std::vector<std::uint8_t> bytes = trace.encode();
    std::ofstream out(args.out_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) throw std::runtime_error("cannot write " + args.out_path);
  }
  JsonLine line;
  describe_report(line, report);
  line.count("dropped_spans", writer.dropped_events()).print();
  return 0;
}

int run_measure(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed, args.rounds);
  net::MessageTrace replay;
  if (workload.replay) replay = load_trace(args.replay_path);
  const double start = wall_seconds();
  std::size_t calls = 0;
  // The first call warms the heap and caches; it is checked, not timed.
  // No call starts that the last call's length says would end past S.
  double last_call_s = 0;
  while (calls < kMinCalls + 1 ||
         wall_seconds() - start + last_call_s <= args.seconds) {
    const double calib_before_s = calibration_seconds();
    const WorkloadCall call = call_workload(workload, &replay, nullptr);
    last_call_s = call.wall_s;
    JsonLine line;
    line.str("kind", calls == 0 ? "warmup" : "call")
        .num("wall_s", call.wall_s)
        .num("cpu_s", call.cpu_s)
        .num("calib_before_s", calib_before_s)
        .num("calib_after_s", calibration_seconds());
    describe_report(line, call.report);
    line.print();
    ++calls;
  }
  JsonLine summary;
  summary.str("kind", "summary").num("peak_rss_mb", peak_rss_mb());
  describe_build(summary);
  summary.print();
  return 0;
}

int run_layers(const Args& args) {
  const Workload workload = make_workload(args.workload, args.seed, args.rounds);
  net::MessageTrace trace;
  if (workload.replay) trace = load_trace(args.replay_path);
  const double start = wall_seconds();
  const double call_budget_s = 0.55 * args.seconds;

  // Every workload call prints its report line for the output checks.
  const auto call = [&](const char* kind, net::MessageTrace* record) {
    WorkloadCall done = call_workload(workload, &trace, record);
    JsonLine line;
    line.str("kind", kind).num("wall_s", done.wall_s).num("cpu_s", done.cpu_s);
    describe_report(line, done.report);
    line.print();
    return done;
  };
  const auto rps = [](const WorkloadCall& done) {
    return static_cast<double>(done.report.rounds_started) / done.wall_s;
  };

  // Untraced calls first: the rounds/s and CPU baselines, and the obs
  // counter deltas of the last one (the first also warms the process).
  std::vector<double> untraced_rps;
  std::vector<double> untraced_cpu_s;
  WorkloadCall counted;
  obs::MetricsSnapshot counts;
  while (untraced_rps.size() < 2 || wall_seconds() - start < call_budget_s / 2) {
    const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
    counted = call("untraced", nullptr);
    counts = obs::MetricsSnapshot::delta(obs::MetricsRegistry::global().snapshot(),
                                         before);
    untraced_rps.push_back(rps(counted));
    untraced_cpu_s.push_back(counted.cpu_s);
  }

  // Traced calls: the writer stays armed to the end of the run, so the
  // layer microbenchmarks' bench spans land in the same file. The first
  // traced call of an online workload records the layer inputs' trace
  // (replay_audit's inputs are the trace it replays).
  if (!obs::TraceWriter::global().open(args.spans_path)) {
    throw std::runtime_error("cannot arm the trace writer");
  }
  std::vector<double> traced_rps{
      rps(call("traced", workload.replay ? nullptr : &trace))};
  while (wall_seconds() - start < call_budget_s) {
    traced_rps.push_back(rps(call("traced", nullptr)));
  }

  const LayerInputs inputs = collect_inputs(trace);
  const scenario::WorldPlan plan = scenario::plan_world(workload.spec);
  const double rounds = static_cast<double>(counted.report.rounds_started);
  const double layer_budget_s =
      std::max(0.5, args.seconds - (wall_seconds() - start)) / 7.0;

  // crypto: sign and verify the workload's own envelopes with its own keys.
  std::vector<const core::SignedMessage*> signable;
  for (const core::SignedMessage& message : inputs.signed_messages) {
    if (plan.keys.private_keys.contains(message.signer)) signable.push_back(&message);
  }
  std::size_t sink = 0;
  const double sign_s = median_op_seconds(
      "bench.crypto.sign", pass_indices(signable.size()), layer_budget_s,
      [&](std::size_t i) {
        const core::SignedMessage& message = *signable[i];
        sink += core::sign_message(message.signer,
                                   plan.keys.private_keys.at(message.signer).priv,
                                   message.payload)
                    .signature.size();
      });
  const core::VerifyContext verify_ctx(&plan.keys.directory,
                                       /*cache_verdicts=*/false);
  std::size_t verify_rejects = 0;
  const double verify_s = median_op_seconds(
      "bench.crypto.verify", pass_indices(inputs.signed_messages.size()),
      layer_budget_s, [&](std::size_t i) {
        if (!verify_ctx.verify(inputs.signed_messages[i])) ++verify_rejects;
      });
  std::vector<std::vector<std::uint8_t>> hashed;
  std::uint64_t hashed_bytes = 0;
  for (const std::size_t i : pass_indices(inputs.signed_messages.size())) {
    const core::SignedMessage& message = inputs.signed_messages[i];
    hashed.push_back(core::message_signing_input(message.signer, message.payload));
    hashed_bytes += hashed.back().size();
  }
  std::vector<std::size_t> hash_order(hashed.size());
  for (std::size_t i = 0; i < hashed.size(); ++i) hash_order[i] = i;
  const double sha_s_per_message = median_op_seconds(
      "bench.crypto.sha256", hash_order, layer_budget_s,
      [&](std::size_t i) { sink += crypto::sha256(hashed[i])[0]; });
  const double sha_ns_per_byte =
      hashed.empty() ? 0.0
                     : sha_s_per_message * 1e9 *
                           static_cast<double>(hashed.size()) /
                           static_cast<double>(hashed_bytes);
  // Key generation replays plan_world's own key stream.
  crypto::Drbg key_rng(workload.spec.seed, "scenario-keys");
  std::vector<std::size_t> key_slots(std::min<std::size_t>(8, plan.participants.size()));
  for (std::size_t i = 0; i < key_slots.size(); ++i) key_slots[i] = i;
  const double keygen_s = median_op_seconds(
      "bench.crypto.keygen", key_slots, layer_budget_s, [&](std::size_t) {
        sink += crypto::generate_rsa_keypair(workload.spec.key_bits, key_rng)
                    .pub.modulus_bytes();
      });

  // net: schedule + run of one no-op event per recorded delivery time.
  std::vector<std::size_t> one_pass{0};
  const double dispatch_pass_s = median_op_seconds(
      "bench.net.dispatch", one_pass, layer_budget_s, [&](std::size_t) {
        net::Simulator sim(workload.spec.seed);
        for (const net::SimTime at : inputs.delivery_times) {
          sim.schedule(at, [&sink] { ++sink; });
        }
        sim.run();
      });
  const double dispatch_ns =
      inputs.delivery_times.empty()
          ? 0.0
          : dispatch_pass_s * 1e9 / static_cast<double>(inputs.delivery_times.size());

  // core: per-channel decode and encode over the channel's own deliveries.
  JsonLine codec;
  double decode_cpu_s = 0;
  const double channel_budget_s =
      layer_budget_s / static_cast<double>(std::max<std::size_t>(1, inputs.channels.size()));
  for (const auto& [channel, slot] : inputs.channels) {
    const std::vector<std::size_t> indices = pass_indices(slot.payloads.size());
    const std::string channel_args = "{\"channel\":\"" + channel + "\"}";
    const double decode_s = median_op_seconds(
        "bench.core.decode", indices, channel_budget_s, [&](std::size_t i) {
          sink += decode_delivery(channel, slot.payloads[i]).hops;
        },
        channel_args);
    const double encode_s = median_op_seconds(
        "bench.core.encode", indices, channel_budget_s, [&](std::size_t i) {
          sink += encode_delivery(channel, slot.decoded[i]);
        },
        channel_args);
    codec.num("core.decode_us." + channel, decode_s * 1e6)
        .num("core.encode_us." + channel, encode_s * 1e6);
    decode_cpu_s += decode_s * static_cast<double>(slot.payloads.size());
  }
  obs::TraceWriter::global().close();

  const obs::HistogramSnapshot& task_us = histogram(counts, "engine.task_us");
  const double signs = static_cast<double>(scalar(counts, "crypto.rsa_signs"));
  const double verifies = static_cast<double>(scalar(counts, "crypto.rsa_verifies"));
  const double cache_hits =
      static_cast<double>(scalar(counts, "crypto.world_cache_hits"));
  const double bytes_hashed =
      static_cast<double>(scalar(counts, "crypto.bytes_hashed"));
  const double events = static_cast<double>(scalar(counts, "sim.events"));
  const double cpu_s = median(untraced_cpu_s);
  const scenario::ScenarioReport& report = counted.report;
  std::size_t deliveries = 0;
  for (const auto& [channel, slot] : inputs.channels) deliveries += slot.payloads.size();

  JsonLine line;
  line.str("kind", "layers");
  describe_build(line);
  line.num("obs.trace_overhead_share",
           1.0 - median(traced_rps) / median(untraced_rps))
      .count("untraced_calls", untraced_rps.size())
      .count("traced_calls", traced_rps.size())
      .count("verify_rejects", verify_rejects)
      .count("sink", sink % 2)  // keeps the timed layer calls observable
      // crypto
      .num("crypto.sign_us", sign_s * 1e6)
      .num("crypto.signs_per_round", signs / rounds)
      .num("crypto.verify_us", verify_s * 1e6)
      .num("crypto.verifies_per_round", verifies / rounds)
      .num("crypto.verify_cache_hit_ratio",
           cache_hits + verifies > 0 ? cache_hits / (cache_hits + verifies) : 0.0)
      .num("crypto.sha256_ns_per_byte", sha_ns_per_byte)
      .num("crypto.hashed_bytes_per_round", bytes_hashed / rounds)
      .num("crypto.keygen_ms", keygen_s * 1e3)
      .count("crypto.keys_per_world", plan.participants.size())
      // core
      .num("core.windows_per_round",
           static_cast<double>(report.windows_fired) / rounds)
      .num("core.evidence_per_round",
           static_cast<double>(report.evidence_total) / rounds)
      // net
      .num("net.dispatch_ns_per_event", dispatch_ns)
      .num("net.events_per_round", events / rounds)
      .num("net.messages_per_round", static_cast<double>(deliveries) / rounds)
      .num("net.bytes_per_round.input", static_cast<double>(report.bytes_input) / rounds)
      .num("net.bytes_per_round.bundle", static_cast<double>(report.bytes_bundle) / rounds)
      .num("net.bytes_per_round.gossip", static_cast<double>(report.bytes_gossip) / rounds)
      .num("net.bytes_per_round.reveal_export",
           static_cast<double>(report.bytes_reveal_export) / rounds)
      // engine
      .num("engine.tasks_per_round",
           static_cast<double>(scalar(counts, "engine.tasks")) / rounds)
      .num("engine.task_us_mean",
           task_us.count > 0 ? static_cast<double>(task_us.sum) /
                                   static_cast<double>(task_us.count)
                             : 0.0)
      .num("engine.busy_share", static_cast<double>(task_us.sum) / 1e6 /
                                    (static_cast<double>(kWorkers) * counted.wall_s))
      .num("engine.rounds_per_drain",
           static_cast<double>(scalar(counts, "engine.rounds_folded")) /
               static_cast<double>(std::max<std::uint64_t>(
                   1, scalar(counts, "engine.drains"))))
      .num("engine.verify_ms_per_round", static_cast<double>(task_us.sum) / 1e3 / rounds)
      .num("engine.overlap_ratio", report.pipeline_overlap_ratio)
      // scenario
      .num("scenario.sim_ms_per_round", report.sim_ms / rounds)
      .num("scenario.settle_horizon_ms",
           static_cast<double>(report.settle_horizon_us) / 1e3)
      .count("scenario.peak_open_rounds", report.peak_open_rounds)
      .count("scenario.peak_root_digests", report.peak_root_digests)
      // budget: count x per-operation cost / process CPU of the workload call
      .num("budget.sign_cpu_share", signs * sign_s / cpu_s)
      .num("budget.verify_cpu_share", verifies * verify_s / cpu_s)
      .num("budget.sha256_cpu_share", bytes_hashed * sha_ns_per_byte / 1e9 / cpu_s)
      .num("budget.keygen_cpu_share",
           static_cast<double>(plan.participants.size()) * keygen_s / cpu_s)
      .num("budget.dispatch_cpu_share", events * dispatch_ns / 1e9 / cpu_s)
      .num("budget.decode_cpu_share", decode_cpu_s / cpu_s);
  line.print();
  codec.print();
  return 0;
}

[[nodiscard]] Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--rounds") {
      args.rounds = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--replay") {
      args.replay_path = value;
    } else if (flag == "--out") {
      args.out_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  if (args.rounds == 0) throw std::invalid_argument("--rounds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (const std::string refusal = build_refusal(); !refusal.empty()) {
      std::fprintf(stderr, "pvr_perfbench: refusing to measure: %s\n",
                   refusal.c_str());
      return 3;
    }
    const Args args = parse_args(argc, argv);
    if (args.mode == "setup") return run_setup(args);
    if (args.mode == "record") return run_record(args);
    if (args.mode == "measure") return run_measure(args);
    if (args.mode == "layers") return run_layers(args);
    throw std::invalid_argument("unknown mode " + args.mode);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pvr_perfbench: %s\n", error.what());
    return 2;
  }
}
