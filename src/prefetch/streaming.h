#ifndef DBA_PREFETCH_STREAMING_H_
#define DBA_PREFETCH_STREAMING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/processor.h"
#include "prefetch/dma.h"

namespace dba::prefetch {

/// Result of a streamed (prefetcher-fed) set operation.
struct StreamingRun {
  std::vector<uint32_t> result;
  uint64_t compute_cycles = 0;   // core cycles across all chunks
  uint64_t dma_cycles = 0;       // total transfer cycles
  uint64_t total_cycles = 0;     // with compute/transfer overlap
  uint32_t chunks = 0;
  bool dma_bound = false;
  double throughput_meps = 0;  // at the processor's f_max
};

/// Executes sorted-set operations on inputs larger than the local data
/// memories by streaming value-partitioned chunks through the data
/// prefetcher (Section 3.2): double-buffered bursts fill the second port
/// of the local memories while the core processes the previous chunk, so
/// throughput stays constant for larger data sets (Section 5.2).
///
/// Chunking is value-based: each round processes all elements up to
/// pivot = min(max of the staged A chunk, max of the staged B chunk),
/// which both sides consume completely -- exactly the partitioning the
/// prefetcher FSM performs in hardware.
class StreamingSetOperation {
 public:
  /// `processor` must outlive this object. `chunk_elements` is the
  /// per-side staging size; 0 picks the largest that fits the local
  /// memories. `base_settings` is applied to every per-chunk kernel run
  /// (e.g. a watchdog budget from a fault-tolerant caller).
  StreamingSetOperation(Processor* processor, DmaConfig dma_config,
                        uint32_t chunk_elements = 0,
                        const RunSettings& base_settings = {});

  Result<StreamingRun> Run(SetOp op, std::span<const uint32_t> a,
                           std::span<const uint32_t> b);

 private:
  Processor* processor_;
  DmaController dma_;
  uint32_t chunk_elements_;
  RunSettings base_settings_;
};

/// Result of RunSetOperationAnySize.
struct AnySizeRun {
  std::vector<uint32_t> result;
  /// Kernel cycles when the inputs fit, the streamed total (with
  /// compute/transfer overlap) otherwise.
  uint64_t cycles = 0;
  bool streamed = false;
};

/// Runs `op` (kMerge included) on one core, whatever the input sizes:
/// with an empty operand, the EmptyOperandResult copied out at 3 cycles
/// per 4-element beat; as one kernel run when both sides fit
/// max_set_elements; streamed through the prefetcher otherwise. This is
/// the single fit-or-stream decision of the board, the query engine and
/// the planner's EIS route.
Result<AnySizeRun> RunSetOperationAnySize(Processor* processor, SetOp op,
                                          std::span<const uint32_t> a,
                                          std::span<const uint32_t> b,
                                          const RunSettings& settings = {});

/// Result of SortAnySize.
struct AnySizeSortRun {
  std::vector<uint32_t> sorted;
  uint64_t cycles = 0;  // all chunk sorts plus all streamed merges
  /// Sort-kernel runs over max_sort_elements-sized chunks (1 when the
  /// input fits, including an empty one); chunks - 1 streamed merges
  /// follow them.
  uint32_t chunks = 0;
  /// Input elements summed over the streamed merges.
  uint64_t merged_elements = 0;
};

/// Sorts `values` of any size on one core: one sort-kernel run when
/// they fit the local store, else local-store-sized chunks sorted in
/// turn and each merged into the running result with the streamed
/// merge kernel. The board's buckets, ORDER BY and JoinKeys all sort
/// here.
Result<AnySizeSortRun> SortAnySize(Processor* processor,
                                   std::span<const uint32_t> values,
                                   const RunSettings& settings = {});

}  // namespace dba::prefetch

#endif  // DBA_PREFETCH_STREAMING_H_
