// Hardening: the simulator must degrade gracefully on arbitrary input --
// random words either fail to decode or execute under the watchdog with
// a clean Status; the EIS datapath survives arbitrary operation orders;
// kernels with corrupted pointers report memory errors instead of
// corrupting state.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/processor.h"
#include "core/workload.h"
#include "eis/eis_extension.h"
#include "isa/assembler.h"
#include "isa/encoding.h"
#include "mem/memory.h"
#include "query/predicate.h"
#include "service/query_service.h"
#include "shared/service_test_util.h"
#include "sim/cpu.h"
#include "system/board.h"

namespace dba {
namespace {

TEST(DecodeFuzzTest, ArbitraryWordsNeverMisbehave) {
  Random rng(0xFEED);
  int decoded_count = 0;
  for (int trial = 0; trial < 200000; ++trial) {
    auto word = isa::Decode(rng.Next64());
    if (word.ok()) {
      ++decoded_count;
      // Re-encoding a decoded base word must round-trip.
      if (word->kind == isa::DecodedWord::Kind::kBase) {
        auto again = isa::Decode(isa::EncodeBase(word->base));
        ASSERT_TRUE(again.ok());
        ASSERT_EQ(again->base, word->base);
      }
    }
  }
  // FLIX-tagged words mostly decode; base words depend on the opcode
  // byte. Either way a healthy fraction decodes.
  EXPECT_GT(decoded_count, 1000);
}

TEST(CpuFuzzTest, RandomProgramsTerminateCleanly) {
  Random rng(0xCAFE);
  auto memory = mem::Memory::Create(
      {.name = "m", .base = 0x1000, .size = 4096, .access_latency = 1});
  ASSERT_TRUE(memory.ok());

  for (int trial = 0; trial < 300; ++trial) {
    sim::CoreConfig config;
    config.instruction_bus_bits = 64;
    sim::Cpu cpu(config);
    ASSERT_TRUE(cpu.AttachMemory(&*memory).ok());

    // Random word soup, halt-terminated half the time.
    std::vector<uint64_t> words;
    const auto length = 1 + rng.Uniform(20);
    for (uint64_t i = 0; i < length; ++i) {
      // Bias toward valid encodings so some programs actually run.
      if (rng.Bernoulli(0.7)) {
        isa::Instruction instr;
        instr.opcode = static_cast<isa::Opcode>(rng.Uniform(0x48));
        instr.rd = isa::RegFromIndex(static_cast<int>(rng.Uniform(16)));
        instr.rs1 = isa::RegFromIndex(static_cast<int>(rng.Uniform(16)));
        instr.rs2 = isa::RegFromIndex(static_cast<int>(rng.Uniform(16)));
        instr.imm = static_cast<int32_t>(rng.Uniform(4096)) - 2048;
        words.push_back(isa::EncodeBase(instr));
      } else {
        words.push_back(rng.Next64());
      }
    }
    if (rng.Bernoulli(0.5)) {
      isa::Instruction halt;
      halt.opcode = isa::Opcode::kHalt;
      words.push_back(isa::EncodeBase(halt));
    }
    isa::Program program(std::move(words), {});

    const Status load_status = cpu.LoadProgram(program);
    if (!load_status.ok()) continue;  // rejected cleanly
    auto stats = cpu.Run({.max_cycles = 50000});
    // Either halts, or errors (bad pc/memory/deadline); never hangs or
    // crashes.
    if (!stats.ok()) {
      EXPECT_NE(stats.status().code(), StatusCode::kOk);
    }
  }
}

TEST(EisDatapathFuzzTest, ArbitraryOperationOrdersSurvive) {
  Random rng(0xD00D);
  constexpr uint64_t kABase = 0x1000;
  constexpr uint64_t kBBase = 0x4000;
  constexpr uint64_t kCBase = 0x8000;

  for (int trial = 0; trial < 150; ++trial) {
    sim::CoreConfig config;
    config.num_lsus = 2;
    config.data_bus_bits = 128;
    config.instruction_bus_bits = 64;
    sim::Cpu cpu(config);
    auto memory = mem::Memory::Create(
        {.name = "m", .base = kABase, .size = 64 << 10,
         .access_latency = 1});
    ASSERT_TRUE(memory.ok());
    ASSERT_TRUE(cpu.AttachMemory(&*memory).ok());
    eis::EisExtension ext;
    ASSERT_TRUE(ext.Attach(&cpu).ok());

    auto pair = GenerateSetPair(
        static_cast<uint32_t>(rng.Uniform(200)),
        static_cast<uint32_t>(rng.Uniform(200)), rng.NextDouble(),
        rng.Next64());
    ASSERT_TRUE(pair.ok());
    ASSERT_TRUE(memory->WriteBlock(kABase, pair->a).ok());
    ASSERT_TRUE(memory->WriteBlock(kBBase, pair->b).ok());

    isa::Assembler masm;
    masm.Tie(eis::op::kInit,
             eis::MakeInitOperand(
                 static_cast<eis::SopMode>(rng.Uniform(3)),
                 rng.Bernoulli(0.5)));
    const uint16_t ops[] = {eis::op::kLd0,  eis::op::kLd1,
                            eis::op::kLdP0, eis::op::kLdP1,
                            eis::op::kSop,  eis::op::kStS,
                            eis::op::kSt,   eis::op::kStoreSop,
                            eis::op::kLdLdpShuffle};
    const auto op_count = 5 + rng.Uniform(60);
    for (uint64_t i = 0; i < op_count; ++i) {
      masm.Tie(ops[rng.Uniform(std::size(ops))], 6);
    }
    masm.Tie(eis::op::kFlush);
    masm.Halt();
    auto program = masm.Finish();
    ASSERT_TRUE(program.ok());

    cpu.ResetArchState();
    cpu.set_reg(isa::abi::kPtrA, kABase);
    cpu.set_reg(isa::abi::kPtrB, kBBase);
    cpu.set_reg(isa::abi::kLenA, static_cast<uint32_t>(pair->a.size()));
    cpu.set_reg(isa::abi::kLenB, static_cast<uint32_t>(pair->b.size()));
    cpu.set_reg(isa::abi::kPtrC, kCBase);
    ASSERT_TRUE(cpu.LoadProgram(*program).ok());
    auto stats = cpu.Run({.max_cycles = 100000});
    ASSERT_TRUE(stats.ok()) << "trial " << trial << ": " << stats.status();
    // The flushed result count is bounded by what was consumable.
    EXPECT_LE(ext.result_count(), pair->a.size() + pair->b.size());
  }
}

TEST(KernelFaultInjectionTest, BadPointersReportMemoryErrors) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  ASSERT_TRUE(processor.ok());
  // Drive the cpu directly with a corrupted pointer: the EIS program
  // must surface OutOfRange/NotFound, not crash.
  auto program = (*processor)->setop_program(SetOp::kIntersect, false);
  ASSERT_TRUE(program.ok());
  sim::Cpu& cpu = (*processor)->cpu();
  ASSERT_TRUE(cpu.LoadProgram(**program).ok());
  cpu.ResetArchState();
  (*processor)->eis()->ResetState();
  cpu.set_reg(isa::abi::kPtrA, 0xDEAD0000);  // unmapped
  cpu.set_reg(isa::abi::kLenA, 64);
  cpu.set_reg(isa::abi::kPtrB, 0xDEAD4000);
  cpu.set_reg(isa::abi::kLenB, 64);
  cpu.set_reg(isa::abi::kPtrC, 0xDEAD8000);
  auto stats = cpu.Run({.max_cycles = 100000});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST(TraceTest, RecordsRenderedInstructions) {
  auto processor = Processor::Create(ProcessorKind::kDba2LsuEis);
  ASSERT_TRUE(processor.ok());
  auto pair = GenerateSetPair(64, 64, 0.5, 1);
  ASSERT_TRUE(pair.ok());
  // Trace through the advanced interface.
  auto program = (*processor)->setop_program(SetOp::kIntersect, false);
  ASSERT_TRUE(program.ok());
  sim::Cpu& cpu = (*processor)->cpu();
  ASSERT_TRUE(cpu.LoadProgram(**program).ok());
  cpu.ResetArchState();
  (*processor)->eis()->ResetState();
  // Use the processor's own memory map via a normal run first to place
  // data, then re-run traced with the same registers.
  auto warm = (*processor)->RunSetOperation(SetOp::kIntersect, pair->a,
                                            pair->b);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(cpu.LoadProgram(**program).ok());
  cpu.ResetArchState();
  (*processor)->eis()->ResetState();
  cpu.set_reg(isa::abi::kPtrA, 0x10000);
  cpu.set_reg(isa::abi::kPtrB, 0x100000);
  cpu.set_reg(isa::abi::kLenA, static_cast<uint32_t>(pair->a.size()));
  cpu.set_reg(isa::abi::kLenB, static_cast<uint32_t>(pair->b.size()));
  cpu.set_reg(isa::abi::kPtrC, 0x200000);
  auto stats = cpu.Run({.trace_limit = 10});
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->trace.size(), 10u);
  // The second issued word is the EIS INIT.
  EXPECT_NE(stats->trace[1].find("init"), std::string::npos);
  bool found_fused = false;
  for (const std::string& line : stats->trace) {
    found_fused |= line.find("store_sop") != std::string::npos ||
                   line.find("ld_ldp_shuffle") != std::string::npos;
  }
  EXPECT_TRUE(found_fused);
}

// Service-submission fuzzer: arbitrary request streams -- malformed
// predicates over unknown columns or tables, malformed direct ops (an op
// outside SetOp, inputs out of order), zero-length sets, shared and
// duplicate tenant ids, random priorities and already-expired deadlines
// -- must never crash the service, every malformed direct op must be
// refused with InvalidArgument, and every OK response must match a
// serial recompute of the same request.
TEST(ServiceFuzzTest, ArbitrarySubmissionsNeverCrashNorLie) {
  using service::ServiceRequest;
  using service::ServiceResponse;

  constexpr uint32_t kRows = 128;
  constexpr uint64_t kTableSeed = 0xF00D;
  system::BoardConfig board_config;
  board_config.num_cores = 2;
  board_config.host_threads = 2;
  auto board = system::Board::Create(board_config);
  ASSERT_TRUE(board.ok());

  service::ServiceConfig config;
  config.board = board->get();
  config.queue_capacity = 64;
  auto service = *service::QueryService::Create(config);
  ASSERT_TRUE(service
                  ->RegisterTable(std::make_unique<query::Table>(
                      service::test::MakeServiceTable("orders", kRows,
                                                      kTableSeed)))
                  .ok());
  service::test::SerialReference reference("orders", kRows, kTableSeed);

  const auto good_pool = service::test::MakePredicatePool(6);
  // Predicates the engine must reject cleanly (unknown column) and
  // tables that do not exist.
  const std::vector<std::shared_ptr<const query::Predicate>> bad_pool = {
      std::shared_ptr<const query::Predicate>(query::Equals("no_such", 1)),
      std::shared_ptr<const query::Predicate>(
          query::And(query::Equals("region", 1),
                     query::GreaterEq("missing", 7))),
  };
  const char* tables[] = {"orders", "orders", "orders", "ghosts", ""};
  const char* tenants[] = {"a", "a", "a", "b", ""};

  Random rng(0xD1CE);
  // Mutated copies of direct ops come from a second stream, so every
  // draw of `rng` -- and every request built from it -- stays as it was.
  Random malformed_rng(0xBAD0);
  for (int round = 0; round < 40; ++round) {
    struct Pending {
      std::future<ServiceResponse> future;
      ServiceRequest request;  // copy for the serial recompute
      bool malformed = false;  // Submit must refuse it: InvalidArgument
    };
    std::vector<Pending> pending;
    const auto submit = [&](ServiceRequest request, bool malformed) {
      Pending p;
      p.malformed = malformed;
      p.request = request;
      p.future = service->Submit(std::move(request));
      pending.push_back(std::move(p));
    };
    const int burst = 1 + static_cast<int>(rng.Uniform(12));
    for (int i = 0; i < burst; ++i) {
      ServiceRequest request;
      request.tenant = tenants[rng.Uniform(5)];
      request.priority = static_cast<int>(rng.Uniform(7)) - 3;
      if (rng.Uniform(8) == 0) request.deadline_ns = 1;  // likely expired
      const uint64_t shape = rng.Uniform(10);
      if (shape < 4) {
        request.table = tables[rng.Uniform(5)];
        request.predicate = good_pool[rng.Uniform(good_pool.size())];
      } else if (shape < 6) {
        request.table = tables[rng.Uniform(5)];
        request.predicate = bad_pool[rng.Uniform(bad_pool.size())];
      } else {
        // Direct op; both, one, or neither side may be empty.
        const SetOp ops[] = {SetOp::kIntersect, SetOp::kUnion,
                             SetOp::kDifference, SetOp::kMerge};
        request.op = ops[rng.Uniform(4)];
        if (rng.Uniform(3) != 0) {
          request.a = service::test::MakeSortedSet(rng, 48, 2048);
        }
        if (rng.Uniform(3) != 0) {
          request.b = service::test::MakeSortedSet(rng, 48, 2048);
        }
      }
      // Beside a direct op, sometimes a mutated copy of it: an op outside
      // SetOp, a descent in one input, or a duplicate (which only merge
      // accepts). The drawn request itself goes in unchanged.
      bool mutated = false;
      bool malformed = false;
      ServiceRequest copy;
      if (request.predicate == nullptr) {
        copy = request;
        std::vector<uint32_t>& side =
            malformed_rng.Uniform(2) == 0 ? copy.a : copy.b;
        switch (malformed_rng.Uniform(8)) {
          case 0:
            copy.op = static_cast<SetOp>(4 + malformed_rng.Uniform(252));
            mutated = malformed = true;
            break;
          case 1:
            if (side.empty()) side.push_back(1);
            side.push_back(side.back() - 1);
            mutated = malformed = true;
            break;
          case 2:
            if (side.empty()) side.push_back(7);
            side.push_back(side.back());
            mutated = true;
            malformed = copy.op != SetOp::kMerge;
            break;
          default:
            break;
        }
      }
      submit(std::move(request), /*malformed=*/false);
      if (mutated) submit(std::move(copy), malformed);
    }
    service->Drain();
    for (Pending& p : pending) {
      const ServiceResponse response = p.future.get();
      if (p.malformed) {
        EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument)
            << "round " << round;
        continue;
      }
      if (!response.status.ok()) continue;  // clean rejection is fine
      // An OK response must be verifiable against a serial recompute.
      if (p.request.predicate != nullptr) {
        EXPECT_EQ(p.request.table, "orders");
        auto expected = reference.Select(*p.request.predicate);
        ASSERT_TRUE(expected.ok()) << expected.status();
        EXPECT_EQ(response.values, *expected)
            << "round " << round << ": "
            << p.request.predicate->ToString();
      } else {
        auto expected =
            reference.Direct(p.request.op, p.request.a, p.request.b);
        ASSERT_TRUE(expected.ok()) << expected.status();
        EXPECT_EQ(response.values, *expected) << "round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace dba
