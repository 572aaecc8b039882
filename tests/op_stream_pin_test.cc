// Pins the interpreter's complete op stream, hint ops included, for every
// workload and compile variant at a small scale. Each stream is drained
// through a real RuntimeLayer on a kernel that never runs, with a fixed
// residency pattern, and hashed op by op. A changed run length, compute
// grouping or hint order changes the hash even where the simulation happens
// to hide it. The constants are part of the op-stream contract
// (docs/INTERNALS.md §4): an interpreter change must reproduce them, not
// re-record them.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/runtime/interpreter.h"
#include "src/workloads/extra.h"
#include "src/workloads/workloads.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

constexpr double kScale = 0.01;

struct Variant {
  const char* name;
  AppVersion version;
  bool adaptive;
  bool oracle;
};

constexpr Variant kVariants[] = {
    {"O", AppVersion::kOriginal, false, false},
    {"P", AppVersion::kPrefetch, false, false},
    {"R", AppVersion::kRelease, false, false},
    {"B", AppVersion::kBuffered, false, false},
    {"V", AppVersion::kReactive, false, false},
    {"B-adaptive", AppVersion::kBuffered, true, false},
    {"B-oracle", AppVersion::kBuffered, false, true},
};

// FNV-1a over the op fields a program controls.
class OpHash {
 public:
  void Add(const Op& op) {
    Mix(static_cast<uint8_t>(op.kind));
    Mix(op.vpage);
    Mix(static_cast<uint8_t>(op.is_write));
    Mix(op.duration);
    Mix(op.count);
    Mix(op.priority);
    Mix(op.tag);
  }
  [[nodiscard]] uint64_t value() const { return hash_; }

 private:
  template <typename T>
  void Mix(T field) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &field, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ull;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct StreamDigest {
  uint64_t hash = 0;
  int64_t ops = 0;
};

StreamDigest DrainAndHash(const SourceProgram& source, const Variant& variant) {
  MachineConfig machine;
  machine.user_memory_bytes =
      static_cast<int64_t>(static_cast<double>(machine.user_memory_bytes) * kScale);
  const CompiledProgram program =
      CompileVersion(source, machine, variant.version, variant.adaptive, variant.oracle);
  Kernel kernel(machine);
  AddressSpace* as =
      MakeSwapAs(kernel, "app", program.layout.total_pages() + source.text_pages);
  std::unique_ptr<RuntimeLayer> runtime;
  if (variant.version != AppVersion::kOriginal) {
    as->AttachPagingDirected(0, as->num_pages());
    RuntimeOptions options;
    options.buffered = variant.version == AppVersion::kBuffered;
    options.reactive = variant.version == AppVersion::kReactive;
    runtime = std::make_unique<RuntimeLayer>(&kernel, as, options);
    // Every third page resident, so both outcomes of the prefetch and release
    // residency filters appear. The header words stay zero, so every buffered
    // accept triggers a drain.
    for (VPage page = 0; page < as->num_pages(); page += 3) {
      as->bitmap()->Set(page);
    }
  }
  Interpreter interp(&program, as, runtime.get());
  OpHash hash;
  StreamDigest digest;
  for (Op op = interp.Next(kernel); op.kind != Op::Kind::kExit; op = interp.Next(kernel)) {
    hash.Add(op);
    ++digest.ops;
  }
  digest.hash = hash.value();
  return digest;
}

struct Pin {
  const char* workload;
  const char* variant;
  uint64_t hash;
  int64_t ops;
};

constexpr Pin kPins[] = {
    {"EMBAR", "O", 0x2bd7c77d377b282aull, 674},
    {"EMBAR", "P", 0x87fbcfdc2903ae36ull, 676},
    {"EMBAR", "R", 0x67467d66d87de8d8ull, 788},
    {"EMBAR", "B", 0x67467d66d87de8d8ull, 788},
    {"EMBAR", "V", 0x32bb79306ab69c02ull, 678},
    {"EMBAR", "B-adaptive", 0x67467d66d87de8d8ull, 788},
    {"EMBAR", "B-oracle", 0x67467d66d87de8d8ull, 788},
    {"MATVEC", "O", 0x51465d93ccc32075ull, 2300},
    {"MATVEC", "P", 0x8cac0cce3a02f6c9ull, 2303},
    {"MATVEC", "R", 0xc37c073b2551dd91ull, 2798},
    {"MATVEC", "B", 0xc37c073b2551dd91ull, 2798},
    {"MATVEC", "V", 0x897c6ecbe15c86a5ull, 2306},
    {"MATVEC", "B-adaptive", 0xc37c073b2551dd91ull, 2798},
    {"MATVEC", "B-oracle", 0xc37c073b2551dd91ull, 2798},
    {"BUK", "O", 0xc576ba24e5fe6736ull, 199988},
    {"BUK", "P", 0xe8c6464de37498b2ull, 199994},
    {"BUK", "R", 0x45461360b8a0eeeull, 200034},
    {"BUK", "B", 0x45461360b8a0eeeull, 200034},
    {"BUK", "V", 0x87d0e58aa8680392ull, 200000},
    {"BUK", "B-adaptive", 0xf712e0ac703e5e9eull, 200034},
    {"BUK", "B-oracle", 0x296d0c9c1ce8b02aull, 200034},
    {"CGM", "O", 0x77d34950a9b59e44ull, 174213},
    {"CGM", "P", 0x1e00685445567f4ull, 174217},
    {"CGM", "R", 0x483ecef21c3bbb08ull, 174263},
    {"CGM", "B", 0x483ecef21c3bbb08ull, 174263},
    {"CGM", "V", 0x6db22ef65445fd0cull, 174221},
    {"CGM", "B-adaptive", 0x78ea43a25879d420ull, 174263},
    {"CGM", "B-oracle", 0xc3875b983b363fb0ull, 174263},
    {"MGRID", "O", 0xfc579226807dd61ull, 15159},
    {"MGRID", "P", 0x9127eea5338b87c1ull, 15171},
    {"MGRID", "R", 0xb800283290ff0be5ull, 15327},
    {"MGRID", "B", 0xb800283290ff0be5ull, 15327},
    {"MGRID", "V", 0x9b10cd3a2c2a8f39ull, 15183},
    {"MGRID", "B-adaptive", 0xae192244c95a3425ull, 15327},
    {"MGRID", "B-oracle", 0x85a76d076586e42dull, 15327},
    {"FFTPDE", "O", 0xfca29671867db2fdull, 53267},
    {"FFTPDE", "P", 0xc23f8a8c3e8aee59ull, 53273},
    {"FFTPDE", "R", 0x82090afb77e60e01ull, 53461},
    {"FFTPDE", "B", 0xb29f6308802770e1ull, 53461},
    {"FFTPDE", "V", 0x994ae39a41e38f55ull, 53279},
    {"FFTPDE", "B-adaptive", 0xe9f7f93a7824c89dull, 53325},
    {"FFTPDE", "B-oracle", 0xda65897779ce0ae5ull, 53387},
    {"RELAX", "O", 0xedae8db02fd210aeull, 11827},
    {"RELAX", "P", 0x9900185641c6660aull, 11829},
    {"RELAX", "R", 0x5fff5b1eb0c7bee6ull, 12163},
    {"RELAX", "B", 0x5fff5b1eb0c7bee6ull, 12163},
    {"RELAX", "V", 0x156fdfe357891ebeull, 11831},
    {"RELAX", "B-adaptive", 0x5fff5b1eb0c7bee6ull, 12163},
    {"RELAX", "B-oracle", 0x5fff5b1eb0c7bee6ull, 12163},
    {"SHUFFLE", "O", 0x7bf436bb4f857b80ull, 84580},
    {"SHUFFLE", "P", 0x5cf09758ad487de1ull, 84581},
    {"SHUFFLE", "R", 0xe0ec8bb452214b4aull, 84596},
    {"SHUFFLE", "B", 0xe0ec8bb452214b4aull, 84596},
    {"SHUFFLE", "V", 0xb6d7386488275b79ull, 84582},
    {"SHUFFLE", "B-adaptive", 0xe0ec8bb452214b4aull, 84596},
    {"SHUFFLE", "B-oracle", 0xe0ec8bb452214b4aull, 84596},
    {"SORTMERGE", "O", 0x11921650539ac004ull, 252},
    {"SORTMERGE", "P", 0xc925355a04ea9786ull, 253},
    {"SORTMERGE", "R", 0x6e8bec25eb038219ull, 296},
    {"SORTMERGE", "B", 0x6e8bec25eb038219ull, 296},
    {"SORTMERGE", "V", 0x31f108d4a6079131ull, 254},
    {"SORTMERGE", "B-adaptive", 0x6e8bec25eb038219ull, 296},
    {"SORTMERGE", "B-oracle", 0x6e8bec25eb038219ull, 296},
};

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadInfo& info : AllWorkloads()) {
    names.push_back(info.name);
  }
  for (const WorkloadInfo& info : ExtraWorkloads()) {
    names.push_back(info.name);
  }
  return names;
}

class OpStreamPinTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OpStreamPinTest, StreamMatchesRecordedHash) {
  const WorkloadInfo* info = FindWorkload(GetParam());
  ASSERT_NE(info, nullptr);
  const SourceProgram source = info->factory(kScale);
  for (const Variant& variant : kVariants) {
    const Pin* pin = nullptr;
    for (const Pin& candidate : kPins) {
      if (GetParam() == candidate.workload && std::string(variant.name) == candidate.variant) {
        pin = &candidate;
      }
    }
    const StreamDigest digest = DrainAndHash(source, variant);
    if (pin == nullptr) {
      ADD_FAILURE() << "no pin for {\"" << GetParam() << "\", \"" << variant.name << "\", 0x"
                    << std::hex << digest.hash << "ull, " << std::dec << digest.ops << "},";
      continue;
    }
    EXPECT_EQ(digest.hash, pin->hash) << GetParam() << " " << variant.name << ": got 0x"
                                      << std::hex << digest.hash;
    EXPECT_EQ(digest.ops, pin->ops) << GetParam() << " " << variant.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OpStreamPinTest, ::testing::ValuesIn(WorkloadNames()),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           return param.param;
                         });

}  // namespace
}  // namespace tmh
