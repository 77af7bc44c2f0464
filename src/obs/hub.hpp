// obs::Hub: one metrics registry + one event journal — the unit of
// observability a ServerEnv hands the protocol code. The journal holds
// every lifecycle record (flight view), every span (Chrome view, per-op
// kinds only while tracing) and the open-op index (in-flight view); see
// obs/journal.hpp. The sim substrate and benches share the
// process-global hub; each net::ClashNode owns a private one so scrapes
// stay per-node in multi-node processes (and the stats endpoint serves
// exactly its node's view).
#pragma once

#include "obs/journal.hpp"
#include "obs/registry.hpp"

namespace clash::obs {

struct Hub {
  Registry registry;
  Journal journal;

  static Hub& global() {
    static Hub* h = new Hub();  // never destroyed: instrumented code
                                // may record during static teardown
    return *h;
  }
};

}  // namespace clash::obs
