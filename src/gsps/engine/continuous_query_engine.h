// The continuous subgraph pattern search engine (paper Definition 2.8), in
// its sequential form: one StreamShard, driven by the caller's thread. The
// shard owns the whole pipeline; stream_shard.h has the usage example and
// the semantics of each method. The pipelined engine
// (pipelined_query_engine.h) drives many shards on worker threads.

#ifndef GSPS_ENGINE_CONTINUOUS_QUERY_ENGINE_H_
#define GSPS_ENGINE_CONTINUOUS_QUERY_ENGINE_H_

#include "gsps/engine/stream_shard.h"

namespace gsps {

using ContinuousQueryEngine = StreamShard;

}  // namespace gsps

#endif  // GSPS_ENGINE_CONTINUOUS_QUERY_ENGINE_H_
