#include "prefetch/streaming.h"

#include <algorithm>

namespace dba::prefetch {

namespace {

/// Core cycles to copy `elements` words out with 128-bit copy
/// instructions: 2 port cycles + loop per 4-element beat.
uint64_t CopyCycles(size_t elements) { return 3 * ((elements + 3) / 4); }

}  // namespace

StreamingSetOperation::StreamingSetOperation(Processor* processor,
                                             DmaConfig dma_config,
                                             uint32_t chunk_elements,
                                             const RunSettings& base_settings)
    : processor_(processor),
      dma_(dma_config),
      chunk_elements_(chunk_elements),
      base_settings_(base_settings) {
  if (chunk_elements_ == 0) {
    // Half the per-set capacity: the other half is the double buffer
    // the prefetcher fills while the core works.
    chunk_elements_ = std::max<uint32_t>(
        256, processor_->max_set_elements(0) / 2);
  }
}

Result<StreamingRun> StreamingSetOperation::Run(SetOp op,
                                                std::span<const uint32_t> a,
                                                std::span<const uint32_t> b) {
  StreamingRun run;
  run.result.reserve(eis::MaxResultSize(op, a.size(), b.size()));
  size_t ia = 0;
  size_t ib = 0;

  while (ia < a.size() && ib < b.size()) {
    // Stage the next chunk of each stream.
    const size_t ca = std::min<size_t>(chunk_elements_, a.size() - ia);
    const size_t cb = std::min<size_t>(chunk_elements_, b.size() - ib);
    // Value pivot: everything up to the smaller staged maximum can be
    // processed without seeing future elements of either stream.
    const uint32_t pivot = std::min(a[ia + ca - 1], b[ib + cb - 1]);
    auto le_pivot = [pivot](uint32_t v) { return v <= pivot; };
    const size_t na = static_cast<size_t>(
        std::partition_point(a.begin() + static_cast<ptrdiff_t>(ia),
                             a.begin() + static_cast<ptrdiff_t>(ia + ca),
                             le_pivot) -
        (a.begin() + static_cast<ptrdiff_t>(ia)));
    const size_t nb = static_cast<size_t>(
        std::partition_point(b.begin() + static_cast<ptrdiff_t>(ib),
                             b.begin() + static_cast<ptrdiff_t>(ib + cb),
                             le_pivot) -
        (b.begin() + static_cast<ptrdiff_t>(ib)));

    DBA_ASSIGN_OR_RETURN(
        SetOpRun chunk_run,
        op == SetOp::kMerge
            ? processor_->RunMerge(a.subspan(ia, na), b.subspan(ib, nb),
                                   base_settings_)
            : processor_->RunSetOperation(op, a.subspan(ia, na),
                                          b.subspan(ib, nb),
                                          base_settings_));

    // Transfer cost of this round: both staged chunks in, results out.
    const uint64_t dma_bytes =
        4 * (static_cast<uint64_t>(na) + nb + chunk_run.result.size());
    const uint64_t dma_cycles = dma_.TransferCycles(dma_bytes);
    run.compute_cycles += chunk_run.metrics.cycles;
    run.dma_cycles += dma_cycles;
    // Double buffering: each round overlaps its transfer with the
    // previous round's compute.
    run.total_cycles += std::max(chunk_run.metrics.cycles, dma_cycles);
    run.result.insert(run.result.end(), chunk_run.result.begin(),
                      chunk_run.result.end());
    ++run.chunks;
    ia += na;
    ib += nb;
  }

  // Tail: one stream is exhausted; what survives of the other still
  // streams through the prefetcher and the copy path.
  DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> tail,
                       eis::EmptyOperandResult(op, a.subspan(ia),
                                               b.subspan(ib)));
  if (!tail.empty()) {
    const uint64_t bytes = 4 * 2 * static_cast<uint64_t>(tail.size());
    const uint64_t dma_cycles = dma_.TransferCycles(bytes);
    const uint64_t copy_cycles = CopyCycles(tail.size());
    run.compute_cycles += copy_cycles;
    run.dma_cycles += dma_cycles;
    run.total_cycles += std::max(copy_cycles, dma_cycles);
    run.result.insert(run.result.end(), tail.begin(), tail.end());
  }

  run.dma_bound = run.dma_cycles > run.compute_cycles;
  if (run.total_cycles > 0) {
    const double seconds =
        static_cast<double>(run.total_cycles) / processor_->frequency_hz();
    run.throughput_meps =
        static_cast<double>(a.size() + b.size()) / seconds / 1e6;
  }
  return run;
}

Result<AnySizeRun> RunSetOperationAnySize(Processor* processor, SetOp op,
                                          std::span<const uint32_t> a,
                                          std::span<const uint32_t> b,
                                          const RunSettings& settings) {
  AnySizeRun run;
  if (a.empty() || b.empty()) {
    DBA_ASSIGN_OR_RETURN(std::span<const uint32_t> kept,
                         eis::EmptyOperandResult(op, a, b));
    run.result.assign(kept.begin(), kept.end());
    run.cycles = CopyCycles(kept.size());
    return run;
  }
  const bool fits =
      a.size() <=
          processor->max_set_elements(static_cast<uint32_t>(b.size())) &&
      b.size() <=
          processor->max_set_elements(static_cast<uint32_t>(a.size()));
  if (fits) {
    // kMerge has its own processor entry point (RunSetOperation rejects
    // it: duplicates make it a sort building block, not a set op).
    DBA_ASSIGN_OR_RETURN(SetOpRun kernel_run,
                         op == SetOp::kMerge
                             ? processor->RunMerge(a, b, settings)
                             : processor->RunSetOperation(op, a, b, settings));
    run.result = std::move(kernel_run.result);
    run.cycles = kernel_run.metrics.cycles;
    return run;
  }
  StreamingSetOperation streaming(processor, DmaConfig{}, 0, settings);
  DBA_ASSIGN_OR_RETURN(StreamingRun streamed, streaming.Run(op, a, b));
  run.result = std::move(streamed.result);
  run.cycles = streamed.total_cycles;
  run.streamed = true;
  return run;
}

Result<AnySizeSortRun> SortAnySize(Processor* processor,
                                   std::span<const uint32_t> values,
                                   const RunSettings& settings) {
  AnySizeSortRun run;
  const uint32_t capacity = processor->max_sort_elements();
  StreamingSetOperation streaming(processor, DmaConfig{}, 0, settings);
  size_t pos = 0;
  do {
    const size_t len = std::min<size_t>(capacity, values.size() - pos);
    DBA_ASSIGN_OR_RETURN(SortRun chunk,
                         processor->RunSort(values.subspan(pos, len),
                                            settings));
    run.cycles += chunk.metrics.cycles;
    ++run.chunks;
    if (pos == 0) {
      run.sorted = std::move(chunk.sorted);
    } else {
      // Every merge streams, even when both runs would still fit the
      // local store.
      DBA_ASSIGN_OR_RETURN(StreamingRun merged,
                           streaming.Run(SetOp::kMerge, run.sorted,
                                         chunk.sorted));
      run.cycles += merged.total_cycles;
      run.merged_elements += run.sorted.size() + chunk.sorted.size();
      run.sorted = std::move(merged.result);
    }
    pos += len;
  } while (pos < values.size());
  return run;
}

}  // namespace dba::prefetch
