// ingest_open: an open-loop stream of registrations (data-stream and
// query re-registrations) against the 3-node cluster, on a ladder of
// fixed rates. One generator thread owns three pipelined connections
// (one per node) and matches replies to requests by request id.
// Bindings are resolved during set-up, so every timed request goes
// straight to its owner at the right depth: the work falls on the
// net / wire / server / repl / storage write path, not client resolve.
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "cluster.hpp"
#include "common/rng.hpp"
#include "isolate.hpp"
#include "wire/codec.hpp"

namespace perfbench {
namespace {

using clash::AcceptObject;
using clash::ServerId;

constexpr std::size_t kSources = 8192;
constexpr std::size_t kQueries = 2048;
constexpr double kStreamRate = 0.001;  // far below any split threshold
struct RungSpec {
  double rate;
  const char* tag;
};
constexpr RungSpec kLadder[] = {
    {5000, "r5k"}, {10000, "r10k"}, {20000, "r20k"}, {40000, "r40k"}};
constexpr double kP99LimitUs = 2000;
constexpr double kWarmupRate = 5000;
constexpr double kWarmupSeconds = 0.5;
constexpr int kSetups = 11;
constexpr int kSetupsBefore = 6;  // the rest follow the timed window
constexpr int kCycles = 10;
constexpr int kChunks = 3;
constexpr std::size_t kChunkOps = 5'000;
constexpr std::int64_t kDrainLimitNs = 10'000'000'000;  // 10 s
constexpr std::int64_t kBacklogBucketNs = 50'000'000;   // 50 ms
constexpr std::int64_t kTraceBlockNs = 200'000'000;     // on/off blocks

struct Object {
  AcceptObject obj;
  std::size_t node = 0;  // owner, bound at set-up
};

std::vector<Object> make_population(std::uint64_t seed, unsigned width) {
  clash::Rng rng(seed ^ 0x1a9e57c0ffeeULL);
  std::vector<Object> out;
  for (std::size_t i = 0; i < kSources + kQueries; ++i) {
    Object o;
    o.obj.key = clash::Key(rng.below(std::uint64_t{1} << width), width);
    if (i < kSources) {
      o.obj.kind = clash::ObjectKind::kData;
      o.obj.source = clash::ClientId{i};
      o.obj.stream_rate = kStreamRate;
    } else {
      o.obj.kind = clash::ObjectKind::kQuery;
      o.obj.query_id = clash::QueryId{i - kSources};
    }
    out.push_back(o);
  }
  return out;
}

struct Conn {
  clash::net::Fd fd;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
};

/// One slot's send schedule: Poisson arrivals at the rung's rate, each
/// naming the object it re-registers. Drawn from the seed up front.
struct Schedule {
  std::vector<std::int64_t> at;  // ns after the rung starts
  std::vector<std::uint32_t> which;
};

Schedule draw_schedule(clash::Rng& rng, double rate, double seconds,
                       std::size_t population) {
  Schedule s;
  const double mean_gap_ns = 1e9 / rate;
  for (double t = rng.exponential(mean_gap_ns); t < seconds * 1e9;
       t += rng.exponential(mean_gap_ns)) {
    s.at.push_back(std::int64_t(t));
    s.which.push_back(std::uint32_t(rng.below(population)));
  }
  return s;
}

/// What one slot (one rung's share of one pass over the ladder) saw.
struct SlotStats {
  std::size_t sent = 0;
  std::size_t done = 0;
  std::size_t wrong = 0;
  std::vector<double> lat_us;      // scheduled send -> reply
  std::vector<double> rtt_us;      // actual send -> reply
  std::vector<double> late_us;     // actual send - scheduled send
  std::vector<double> lat_on_us;   // trace: span-recording blocks
  std::vector<double> lat_off_us;  // trace: blocks without spans
  std::size_t backlog_max = 0;
  bool backlog_grows = false;
};

class Generator {
 public:
  Generator(LocalCluster& cluster, const std::vector<Object>& pop,
            SpanLog& spans)
      : pop_(pop), spans_(spans) {
    for (std::size_t i = 0; i < LocalCluster::kNodes; ++i) {
      auto fd = clash::net::connect_tcp(cluster.members().at(ServerId{i}));
      if (!fd.ok()) throw std::runtime_error("generator connect failed");
      conns_.push_back(Conn{std::move(fd).value(), {}, 0, {}});
      clash::net::set_nonblocking(conns_.back().fd);
      clash::net::set_nodelay(conns_.back().fd);
    }
  }

  /// Run one slot: sends at the scheduled instants, at most `window`
  /// requests outstanding, then a drain of the outstanding replies
  /// (bounded by kDrainLimitNs).
  void run(SlotStats& st, const Schedule& sched, bool trace,
           std::size_t window = SIZE_MAX) {
    const auto& at = sched.at;
    const auto& which = sched.which;
    const std::size_t n = at.size();
    std::vector<std::int64_t> sent(n, 0);
    std::vector<std::int64_t> done(n, 0);
    std::vector<std::size_t> buckets;
    const std::uint64_t id_base = next_id_;
    next_id_ += n;

    const std::int64_t t0 = now_ns() + 1'000'000;  // 1 ms lead
    std::size_t next = 0;
    std::size_t completed = 0;
    std::vector<pollfd> pfds(conns_.size());
    for (;;) {
      const std::int64_t now = now_ns();
      while (next < n && t0 + at[next] <= now && next - completed < window) {
        const Object& o = pop_[which[next]];
        auto w = clash::wire::begin_frame(clash::wire::Envelope{
            clash::wire::FrameKind::kRequest, id_base + next, ServerId{}});
        clash::wire::encode_message(w, clash::Message(o.obj));
        const auto frame = clash::wire::finish_frame(std::move(w));
        Conn& c = conns_[o.node];
        c.out.insert(c.out.end(), frame.begin(), frame.end());
        sent[next] = now;
        ++next;
      }
      for (auto& c : conns_) flush(c);

      const std::size_t backlog = next - completed;
      st.backlog_max = std::max(st.backlog_max, backlog);
      const auto bucket = std::size_t(std::max<std::int64_t>(0, now - t0) /
                                      kBacklogBucketNs);
      if (next < n) {
        if (buckets.size() <= bucket) buckets.resize(bucket + 1, 0);
        buckets[bucket] = std::max(buckets[bucket], backlog);
      }
      if (completed == n) break;
      if (next == n && now - (t0 + at[n - 1]) > kDrainLimitNs) break;

      // Sleep until the next scheduled send or a reply, whichever is
      // first — never a busy spin against the node loops.
      std::int64_t wait_ns = 2'000'000;
      if (next < n && next - completed < window) {
        wait_ns = std::max<std::int64_t>(0, t0 + at[next] - now);
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const bool pending = conns_[i].out_off < conns_[i].out.size();
        pfds[i] = pollfd{conns_[i].fd.get(),
                         short(POLLIN | (pending ? POLLOUT : 0)), 0};
      }
      const timespec ts{wait_ns / 1'000'000'000, wait_ns % 1'000'000'000};
      if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if ((pfds[i].revents & POLLIN) == 0) continue;
        read_replies(conns_[i], [&](std::uint64_t id, int depth) {
          if (id < id_base || id >= id_base + n || done[id - id_base] != 0) {
            ++st.wrong;
            return;
          }
          const std::size_t k = id - id_base;
          done[k] = now_ns();
          ++completed;
          if (depth != int(pop_[which[k]].obj.depth)) ++st.wrong;
        });
      }
    }

    st.sent = next;
    st.done = completed;
    for (std::size_t k = 0; k < n; ++k) {
      if (done[k] == 0) continue;
      const std::int64_t sched = t0 + at[k];
      const double lat = double(done[k] - sched) / 1e3;
      st.lat_us.push_back(lat);
      st.rtt_us.push_back(double(done[k] - sent[k]) / 1e3);
      st.late_us.push_back(double(sent[k] - sched) / 1e3);
      if (trace) {
        // Spans are kept for alternate blocks only, so the traced run
        // can price its own overhead against the blocks without.
        const bool on = (at[k] / kTraceBlockNs) % 2 == 0;
        spans_.set_enabled(on);
        const auto root =
            spans_.record("ingest_request", sched, done[k], id_base + k);
        spans_.record("generator_late", sched, sent[k], id_base + k, root);
        spans_.record("rpc_accept_object", sent[k], done[k], id_base + k,
                      root);
        (on ? st.lat_on_us : st.lat_off_us).push_back(lat);
      }
    }
    spans_.set_enabled(true);
    // The backlog grows when the last quarter of the send window sits
    // well above the first quarter.
    if (buckets.size() >= 4) {
      const std::size_t qn = buckets.size() / 4;
      double first = 0, last = 0;
      for (std::size_t i = 0; i < qn; ++i) {
        first += double(buckets[i]);
        last += double(buckets[buckets.size() - 1 - i]);
      }
      st.backlog_grows = last / double(qn) > 2.0 * first / double(qn) + 32.0;
    }
  }

 private:
  static void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t w = ::write(c.fd.get(), c.out.data() + c.out_off,
                                c.out.size() - c.out_off);
      if (w <= 0) break;
      c.out_off += std::size_t(w);
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  /// Drain the socket and hand (request id, accepted depth) for each
  /// complete reply frame; depth -1 for anything but AcceptObjectOk.
  template <typename OnReply>
  static void read_replies(Conn& c, OnReply&& on_reply) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t r = ::read(c.fd.get(), buf, sizeof(buf));
      if (r <= 0) break;
      c.in.insert(c.in.end(), buf, buf + r);
    }
    std::size_t off = 0;
    while (c.in.size() - off >= 4) {
      const std::uint32_t len = clash::wire::load_u32_le(c.in.data() + off);
      if (c.in.size() - off - 4 < len) break;
      const auto frame = clash::wire::decode_frame(
          std::span<const std::uint8_t>(c.in.data() + off + 4, len));
      off += 4 + len;
      if (!frame.ok()) {
        on_reply(0, -1);
        continue;
      }
      const auto reply = clash::wire::decode_reply(frame.value().payload);
      const auto* accepted =
          reply.ok() ? std::get_if<clash::AcceptObjectOk>(&reply.value())
                     : nullptr;
      on_reply(frame.value().envelope.request_id,
               accepted != nullptr ? int(accepted->depth) : -1);
    }
    c.in.erase(c.in.begin(), c.in.begin() + std::ptrdiff_t(off));
  }

  const std::vector<Object>& pop_;
  SpanLog& spans_;
  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;
};

/// Start the cluster, bind every object to the active group that holds
/// its key (depth and owner, from the nodes' own tables), and register
/// the whole population once as one pipelined burst.
std::unique_ptr<LocalCluster> set_up(const Options& opt, int attempt,
                                     std::vector<Object>& pop, Result& res) {
  ClusterSpec spec;
  spec.clash = tcp_clash_config();
  spec.data_dir = opt.work_dir + "/ingest-" + std::to_string(::getpid()) +
                  "-" + std::to_string(attempt);
  auto cluster = std::make_unique<LocalCluster>(spec);
  res.check(cluster->wait_converged(std::chrono::seconds(10)),
            "membership did not converge");
  const auto groups = cluster->active_groups();
  for (auto& o : pop) {
    const auto* g = group_for(groups, o.obj.key);
    if (g == nullptr) {
      res.errors.push_back("no active group holds a population key");
      return cluster;
    }
    o.obj.depth = g->first.depth();
    o.node = std::size_t(g->second.value);
  }
  Schedule burst;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    burst.at.push_back(0);
    burst.which.push_back(std::uint32_t(i));
  }
  SpanLog spans;
  Generator gen(*cluster, pop, spans);
  SlotStats st;
  gen.run(st, burst, false);
  res.check(st.done == pop.size() && st.wrong == 0,
            "set-up registration was not accepted at the bound depth");
  return cluster;
}

/// One rung's slots, summarised: each statistic is the median over
/// the rung's slots, so a burst of host noise in one slot moves it
/// little.
struct Rung {
  double rate = 0;
  const char* tag = "";
  std::vector<SlotStats> slots;

  [[nodiscard]] double slot_median(double q,
                                   std::vector<double> SlotStats::*v) const {
    std::vector<double> per;
    for (const auto& s : slots) per.push_back(quantile(s.*v, q));
    return median(std::move(per));
  }
  [[nodiscard]] double p(double q) const {
    return slot_median(q, &SlotStats::lat_us);
  }
  [[nodiscard]] std::size_t backlog_max() const {
    std::size_t m = 0;
    for (const auto& s : slots) m = std::max(m, s.backlog_max);
    return m;
  }
  /// The backlog grows when it grows in most of the rung's slots.
  [[nodiscard]] bool backlog_grows() const {
    std::size_t n = 0;
    for (const auto& s : slots) n += s.backlog_grows ? 1 : 0;
    return 2 * n > slots.size();
  }
  [[nodiscard]] bool all_answered() const {
    for (const auto& s : slots) {
      if (s.done != s.sent || s.wrong != 0) return false;
    }
    return true;
  }
};

}  // namespace

Result run_ingest_open(const Options& opt) {
  Result res;
  // 1 us timer slack: the generator sleeps in ppoll between sends.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const auto cfg = tcp_clash_config();

  // The whole send schedule comes from the seed before anything runs:
  // kCycles passes over the ladder, one slot per rung per pass, so each
  // rung's samples spread over the whole timed window.
  std::vector<Object> pop = make_population(opt.seed, cfg.key_width);
  clash::Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 11);
  const double slot_s = opt.seconds / double(std::size(kLadder) * kCycles);
  const Schedule warmup =
      draw_schedule(rng, kWarmupRate, kWarmupSeconds, pop.size());
  std::vector<Schedule> schedules;
  for (int c = 0; c < kCycles; ++c) {
    for (const auto& rung : kLadder) {
      schedules.push_back(draw_schedule(rng, rung.rate, slot_s, pop.size()));
    }
  }
  std::vector<Schedule> chunks(kChunks);
  for (auto& c : chunks) {
    for (std::size_t i = 0; i < kChunkOps; ++i) {
      c.at.push_back(0);
      c.which.push_back(std::uint32_t(rng.below(pop.size())));
    }
  }

  std::unique_ptr<LocalCluster> cluster;
  flush_fs(opt.work_dir);  // earlier runs' and the build's writes
  // Set-ups are timed before the window and again after it, so that
  // their median samples the host at both ends of the run.
  SetupTimes setups;
  const auto time_set_ups = [&](int n) {
    for (int k = 0; k < n && res.errors.empty(); ++k) {
      cluster.reset();  // teardown is not set-up
      cluster = setups.time([&] {
        return set_up(opt, int(setups.cpu_s.size()), pop, res);
      });
    }
  };
  time_set_ups(kSetupsBefore);
  if (!res.errors.empty()) return res;

  SpanLog spans;
  Generator gen(*cluster, pop, spans);
  {
    SlotStats w;
    gen.run(w, warmup, false);
  }

  cluster->reset_registries();
  const ClusterReading start = cluster->read();
  std::vector<Rung> rungs(std::size(kLadder));
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    rungs[r].rate = kLadder[r].rate;
    rungs[r].tag = kLadder[r].tag;
  }
  std::size_t attempted = 0, done = 0, wrong = 0;
  for (std::size_t k = 0; k < schedules.size(); ++k) {
    Rung& rung = rungs[k % rungs.size()];
    SlotStats st;
    gen.run(st, schedules[k], opt.trace);
    attempted += schedules[k].at.size();
    done += st.done;
    wrong += st.wrong;
    rung.slots.push_back(std::move(st));
  }
  const ClusterReading end = cluster->read();
  const std::size_t ladder_done = done;

  // The cost of a registration is priced one request at a time. On the
  // ladder, how many requests share a loop tick (and so the CPU and frames
  // each costs) follows the host's wake-up latency; alone, a request pays
  // the whole write path by itself. Other tenants' load only ever adds
  // CPU time: the least-disturbed chunk is the figure.
  std::vector<double> chunk_cpu_us_per_op, chunk_frames_per_op;
  for (const Schedule& chunk : chunks) {
    const ClusterReading before = cluster->read();
    const double cpu0 = process_cpu_s();
    SlotStats st;
    gen.run(st, chunk, false, 1);
    const double ops = double(std::max<std::size_t>(1, st.done));
    chunk_cpu_us_per_op.push_back((process_cpu_s() - cpu0) * 1e6 / ops);
    chunk_frames_per_op.push_back(frames_per_op(before, cluster->read(), ops));
    attempted += chunk.at.size();
    done += st.done;
    wrong += st.wrong;
  }

  // --- Correctness -------------------------------------------------------
  res.attempted = attempted;
  res.failed = (attempted - done) + wrong;
  res.check(wrong == 0, "a reply was not AcceptObjectOk at the bound depth");
  const clash::MessageStats last = cluster->stats();
  res.check(last.splits == start.msgs.splits &&
                last.merges == start.msgs.merges,
            "the tree split or merged inside the timed window");
  std::vector<std::size_t> want_streams(LocalCluster::kNodes, 0);
  std::vector<std::size_t> want_queries(LocalCluster::kNodes, 0);
  for (const auto& o : pop) {
    (o.obj.kind == clash::ObjectKind::kQuery ? want_queries
                                             : want_streams)[o.node]++;
  }
  for (std::size_t i = 0; i < LocalCluster::kNodes; ++i) {
    res.check(cluster->streams(i) == want_streams[i] &&
                  cluster->queries(i) == want_queries[i],
              "node" + std::to_string(i) +
                  " stream/query counts differ from the registered population");
  }
  std::string lag;
  res.check(cluster->heads_converged(std::chrono::seconds(10), &lag),
            "replica log heads did not converge: " + lag);

  // --- End-to-end metrics ---------------------------------------------
  const auto rung = [&](const char* tag) -> const Rung& {
    for (const auto& r : rungs) {
      if (std::string(r.tag) == tag) return r;
    }
    return rungs.front();
  };
  const Rung& r10k = rung("r10k");
  double max_ok = 0;
  for (const auto& r : rungs) {
    if (r.all_answered() && r.p(0.99) <= kP99LimitUs && !r.backlog_grows()) {
      max_ok = std::max(max_ok, r.rate);
    }
  }
  res.set("cpu_us_per_op", quantile(chunk_cpu_us_per_op, 0), "us");
  res.set("msgs_per_op", median(chunk_frames_per_op), "count");
  res.set("ops_per_s", double(ladder_done) / opt.seconds, "1/s");
  res.set("p50_us", r10k.p(0.50), "us");
  res.set("p99_us", r10k.p(0.99), "us");
  res.set("p99_us.r20k", rung("r20k").p(0.99), "us");
  res.set("p99_us.r40k", rung("r40k").p(0.99), "us");
  res.set("max_ok_rate_per_s", max_ok, "1/s");
  res.set("fail_frac", double(res.failed) / double(attempted), "ratio");
  res.set("probes_per_op", 1.0, "count");  // bindings resolved at set-up
  res.set("peak_rss_mb", peak_rss_mb(), "MB");

  char line[256];
  for (const auto& r : rungs) {
    std::snprintf(line, sizeof(line),
                  "rung %-4s %6.0f/s x%zu slots  p50 %.1f us  p99 %.1f us  "
                  "p999 %.1f us  late_p99 %.1f us  backlog_max %zu%s",
                  r.tag, r.rate, r.slots.size(), r.p(0.5), r.p(0.99),
                  r.p(0.999), r.slot_median(0.99, &SlotStats::late_us),
                  r.backlog_max(), r.backlog_grows() ? " (grows)" : "");
    res.notes.push_back(line);
  }
  {
    const clash::MessageStats m = end.msgs - start.msgs;
    const double kops = double(ladder_done) / 1e3;
    std::snprintf(
        line, sizeof(line),
        "ladder: compactions/kop %.2f  snapshot_installs/kop %.2f",
        double(m.log_compactions) / kops,
        (end.get("clash_snapshot_install_usec_count") -
         start.get("clash_snapshot_install_usec_count")) /
            kops);
    res.notes.push_back(line);
  }
  // The traced part below works on the last set-up's cluster: the same
  // configuration and tree as the one timed.
  time_set_ups(kSetups - kSetupsBefore);
  setups.report(res);
  if (!opt.trace) return res;

  // --- Per-layer metrics (traced run) ------------------------------------
  for (const auto& r : rungs) {
    res.set(std::string("gen.late_p99_us.") + r.tag,
            r.slot_median(0.99, &SlotStats::late_us), "us");
    res.set(std::string("gen.backlog_max.") + r.tag, double(r.backlog_max()),
            "count");
  }
  res.set("lat.p999_us", r10k.p(0.999), "us");
  res.set("rpc.rtt_p50_us", r10k.slot_median(0.50, &SlotStats::rtt_us), "us");
  res.set("rpc.rtt_p99_us", r10k.slot_median(0.99, &SlotStats::rtt_us), "us");
  add_cluster_layers(res, start, end, double(ladder_done));
  std::vector<double> on, off;
  for (const auto& st : r10k.slots) {
    on.insert(on.end(), st.lat_on_us.begin(), st.lat_on_us.end());
    off.insert(off.end(), st.lat_off_us.begin(), st.lat_off_us.end());
  }
  res.set("trace.overhead_frac", median(on) / median(off) - 1.0, "ratio");

  std::vector<clash::Key> keys;
  std::vector<clash::AcceptObject> objs;
  for (const auto& o : pop) {
    keys.push_back(o.obj.key);
    objs.push_back(o.obj);
  }
  res.set("dht.hash_ns", time_hash_ns(cluster->ring().hasher(), keys), "ns");
  const clash::ServerTable table = cluster->hottest_table();
  const TableTimes tt = time_table_ns(table, keys);
  res.set("server.table_entries", double(table.size()), "count");
  res.set("server.lpm_ns", tt.lpm_ns, "ns");
  res.set("server.entry_for_ns", tt.entry_for_ns, "ns");
  const CodecTimes ct = time_codec_ns(objs);
  res.set("wire.encode_ns", ct.encode_ns, "ns");
  res.set("wire.decode_ns", ct.decode_ns, "ns");
  res.set("wal.append_ns",
          time_wal_append_ns(opt.work_dir + "/wal-iso-" +
                                 std::to_string(::getpid()),
                             cfg, objs),
          "ns");
  res.set("gossip.msgs_per_s", idle_gossip_per_s(*cluster), "1/s");
  spans.write_chrome(opt.work_dir + "/trace-ingest_open-" +
                     std::to_string(opt.seed) + ".json");
  return res;
}

}  // namespace perfbench
