// Microbenchmarks (google-benchmark) for the hot code paths: key ops,
// ServerTable lookups, hashing, Chord routing, client resolution,
// split/merge cost, and the wire codec.
#include <benchmark/benchmark.h>

#include <memory>

#include "clash/client.hpp"
#include "clash/server_table.hpp"
#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "dht/chord.hpp"
#include "sim/cluster.hpp"
#include "wire/codec.hpp"

using namespace clash;

namespace {

void BM_Shape(benchmark::State& state) {
  Rng rng(1);
  const Key k(rng.next() & 0xFFFFFF, 24);
  unsigned d = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shape(k, d % 25));
    ++d;
  }
}
BENCHMARK(BM_Shape);

void BM_KeyGroupContains(benchmark::State& state) {
  const KeyGroup g = KeyGroup::of(Key(0x123456, 24), 9);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.contains(Key(rng.next() & 0xFFFFFF, 24)));
  }
}
BENCHMARK(BM_KeyGroupContains);

void BM_Sha1Hash64(benchmark::State& state) {
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash64(v++));
  }
}
BENCHMARK(BM_Sha1Hash64);

void BM_KeyHasher(benchmark::State& state) {
  const auto algo = state.range(0) == 0 ? dht::KeyHasher::Algo::kMix64
                                        : dht::KeyHasher::Algo::kSha1;
  const dht::KeyHasher hasher(32, algo);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.hash_key(Key(rng.next() & 0xFFFFFF, 24)));
  }
}
BENCHMARK(BM_KeyHasher)->Arg(0)->Arg(1);

ServerTable make_table(std::size_t entries) {
  ServerTable t(24);
  Rng rng(7);
  while (t.size() < entries) {
    const unsigned depth = 1 + unsigned(rng.below(24));
    const KeyGroup g = KeyGroup::of(Key(rng.next() & 0xFFFFFF, 24), depth);
    if (t.find(g) != nullptr) continue;
    t.insert({g, false, ServerId{0}, ServerId{1}, false});
  }
  return t;
}

void BM_TableLongestPrefix(benchmark::State& state) {
  const auto t = make_table(std::size_t(state.range(0)));
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.longest_prefix_match(Key(rng.next() & 0xFFFFFF, 24)));
  }
}
BENCHMARK(BM_TableLongestPrefix)->Arg(8)->Arg(64)->Arg(512);

void BM_TableActiveLookup(benchmark::State& state) {
  ServerTable t(24);
  Rng rng(9);
  // Prefix-free actives: split a trie path.
  KeyGroup g = KeyGroup::root(24);
  for (int i = 0; i < state.range(0); ++i) {
    t.insert({g.right_child(), false, ServerId{0}, ServerId{}, true});
    g = g.left_child();
  }
  t.insert({g, false, ServerId{0}, ServerId{}, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.active_entry_for(Key(rng.next() & 0xFFFFFF, 24)));
  }
}
BENCHMARK(BM_TableActiveLookup)->Arg(4)->Arg(16)->Arg(23);

void BM_ChordLookup(benchmark::State& state) {
  dht::ChordRing::Config cfg;
  cfg.hash_bits = 32;
  dht::ChordRing ring(cfg);
  const auto n = std::uint64_t(state.range(0));
  for (std::uint64_t i = 0; i < n; ++i) ring.add_server(ServerId{i});
  Rng rng(10);
  std::uint64_t hops = 0, lookups = 0;
  for (auto _ : state) {
    const auto r = ring.lookup(dht::HashKey{rng.next() & 0xFFFFFFFF},
                               ServerId{rng.below(n)});
    hops += r.hops;
    ++lookups;
    benchmark::DoNotOptimize(r);
  }
  state.counters["avg_hops"] =
      benchmark::Counter(double(hops) / double(lookups));
}
BENCHMARK(BM_ChordLookup)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ClientResolve(benchmark::State& state) {
  sim::SimCluster::Config cfg;
  cfg.num_servers = 128;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 6;
  cfg.clash.capacity = 1e18;
  sim::SimCluster cluster(cfg);
  cluster.bootstrap();
  // Deepen the tree a bit.
  Rng splitter(11);
  for (int i = 0; i < 200; ++i) {
    const Key k(splitter.next() & 0xFFFFFF, 24);
    const auto g = cluster.find_active_group(k);
    if (!g || g->depth() >= 24) continue;
    (void)cluster.server(*cluster.find_owner(k)).force_split(*g);
  }
  ClashClient::Options opts;
  opts.use_cache = state.range(0) != 0;
  ClashClient client(cluster.clash_config(), cluster.client_env(ServerId{0}),
                     cluster.hasher(), opts, 5);
  Rng rng(12);
  // With cache: resolve the same small working set repeatedly.
  std::vector<Key> keys;
  for (int i = 0; i < 16; ++i) keys.emplace_back(rng.next() & 0xFFFFFF, 24);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.resolve(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_ClientResolve)->Arg(0)->Arg(1);

void BM_SplitMergeCycle(benchmark::State& state) {
  sim::SimCluster::Config cfg;
  cfg.num_servers = 32;
  cfg.clash.key_width = 24;
  cfg.clash.initial_depth = 4;
  cfg.clash.capacity = 1e18;
  sim::SimCluster cluster(cfg);
  cluster.bootstrap();
  const Key k(0x800000, 24);
  for (auto _ : state) {
    const auto g = cluster.find_active_group(k);
    const auto owner = cluster.find_owner(k);
    (void)cluster.server(*owner).force_split(*g);
    // Merge straight back (children are cold): one load check on the
    // parent owner triggers consolidation.
    cluster.server(*owner).run_load_check();
    benchmark::DoNotOptimize(cluster.owner_index().size());
  }
}
BENCHMARK(BM_SplitMergeCycle);

/// One value of every Message alternative (the codec fuzz corpus's).
std::vector<Message> representative_messages() {
  const KeyGroup g = KeyGroup::parse("0110*", 24).value();
  const repl::LogHead head{7, 123};
  const StreamInfo stream{ClientId{9}, Key(0x601234, 24), 2.5};
  const QueryInfo query{QueryId{44}, Key(0x60AAAA, 24)};
  std::vector<Message> all;
  all.emplace_back(AcceptObject{Key(0xABCDEF, 24), 9, ObjectKind::kQuery,
                                QueryId{424242}, 2.5, ClientId{99}, false,
                                0xFEEDFACE12345678ULL});
  all.emplace_back(AcceptObjectOk{5});
  all.emplace_back(IncorrectDepth{4});
  all.emplace_back(
      AcceptKeyGroup{g, ServerId{7}, true, 17, {stream}, {query}, {}});
  all.emplace_back(AcceptKeyGroupAck{g});
  all.emplace_back(LoadReport{g, 123.5, true});
  all.emplace_back(ReclaimKeyGroup{g});
  all.emplace_back(ReclaimAck{g, {stream}, {}, {}});
  all.emplace_back(ReclaimRefused{g});
  all.emplace_back(DropReplica{g});
  NodeCensusRecord rec;
  rec.node = ServerId{4};
  rec.load = 77.5;
  rec.top_groups.push_back({g, GroupCost{1, 2, 3, 4, 5}});
  all.emplace_back(Gossip{GossipKind::kPing,
                          41,
                          ServerId{6},
                          {{ServerId{2}, MemberState::kSuspect, 3},
                           {ServerId{4}, MemberState::kDead, 9}},
                          {rec},
                          0});
  all.emplace_back(ReplAppend{g,
                              ServerId{3},
                              5,
                              41,
                              0xABCDEF99ULL,
                              {repl::LogOp::put_stream(stream),
                               repl::LogOp::put_query(query),
                               repl::LogOp::app_delta_op({1, 2, 3, 4})},
                              0});
  all.emplace_back(ReplAck{{GroupHead{g, head}}, true});
  all.emplace_back(
      SnapshotOffer{g, ServerId{2}, head, true, ServerId{6}, 3, 0x1111});
  all.emplace_back(SnapshotChunk{
      g, head, 1, 3, 0x1111, {stream}, {query}, {9, 8, 7}, {{1}, {2, 3}}, 0});
  all.emplace_back(AntiEntropyProbe{ServerId{2}, {GroupHead{g, head}}});
  all.emplace_back(AntiEntropyDiff{{GroupHead{g, repl::LogHead{}}}});
  return all;
}

// Encode every representative message once per iteration (into a
// pooled Writer, as a TCP send does).
void BM_CodecEncode(benchmark::State& state) {
  const auto all = representative_messages();
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (const auto& msg : all) {
      wire::Writer w;
      wire::encode_message(w, msg);
      bytes += w.size();
      benchmark::DoNotOptimize(w.data().data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations() * all.size()));
  state.SetBytesProcessed(std::int64_t(bytes));
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  std::vector<std::vector<std::uint8_t>> payloads;
  std::size_t total = 0;
  for (const auto& msg : representative_messages()) {
    wire::Writer w;
    wire::encode_message(w, msg);
    payloads.push_back(w.take());
    total += payloads.back().size();
  }
  for (auto _ : state) {
    for (const auto& p : payloads) {
      auto decoded = wire::decode_message(p);
      benchmark::DoNotOptimize(decoded);
    }
  }
  state.SetItemsProcessed(std::int64_t(state.iterations() * payloads.size()));
  state.SetBytesProcessed(std::int64_t(state.iterations() * total));
}
BENCHMARK(BM_CodecDecode);

}  // namespace

BENCHMARK_MAIN();
