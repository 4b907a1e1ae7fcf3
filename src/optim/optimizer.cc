#include "optim/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "math/simd.h"
#include "util/check.h"

namespace kge {
namespace {

// Shared prologue of every optimizer's serialized state: name (verified
// on load so a checkpoint cannot silently switch optimizers) and the
// current base learning rate.
Status WriteStateHeader(const std::string& name, double learning_rate,
                        BinaryWriter* writer) {
  KGE_RETURN_IF_ERROR(writer->WriteString(name));
  return writer->WriteDouble(learning_rate);
}

Status ReadStateHeader(const std::string& expected_name, BinaryReader* reader,
                       double* learning_rate) {
  Result<std::string> name = reader->ReadString();
  if (!name.ok()) return name.status();
  if (*name != expected_name) {
    return Status::InvalidArgument("checkpoint optimizer '" + *name +
                                   "' does not match '" + expected_name + "'");
  }
  Result<double> stored = reader->ReadDouble();
  if (!stored.ok()) return stored.status();
  *learning_rate = *stored;
  return Status::Ok();
}

// Per-element optimizer state laid out like each block: `arrays` arrays
// of block->size() floats per block (Adagrad's sums; Adam's m and v), in
// one calloc'd allocation per block. Its pages stay unmapped zero pages
// until a row is first updated, and an embedding table's state is large
// enough that the allocator maps it directly (glibc: above its 32 MiB
// threshold cap), so it never fragments the heap and freeing it returns
// every page at once.
class MomentTable {
 public:
  MomentTable(const std::vector<ParameterBlock*>& blocks, size_t arrays)
      : arrays_(arrays) {
    sizes_.reserve(blocks.size());
    storage_.reserve(blocks.size());
    for (const ParameterBlock* block : blocks) {
      const size_t size = size_t(block->size());
      sizes_.push_back(size);
      // One spare float keeps an empty block's request nonzero.
      storage_.emplace_back(
          static_cast<float*>(std::calloc(arrays * size + 1, sizeof(float))));
      KGE_CHECK(storage_.back() != nullptr);
    }
  }

  // Array `array` of block `block_index`, laid out like the block.
  float* Of(size_t block_index, size_t array) const {
    return storage_[block_index].get() + array * sizes_[block_index];
  }

  void Zero() {
    for (size_t b = 0; b < storage_.size(); ++b) {
      std::fill_n(storage_[b].get(), arrays_ * sizes_[b], 0.0f);
    }
  }

  // Array `array` of every block, as length-checked float arrays.
  Status Write(size_t array, BinaryWriter* writer) const {
    for (size_t b = 0; b < storage_.size(); ++b) {
      KGE_RETURN_IF_ERROR(writer->WriteFloatArray(Of(b, array), sizes_[b]));
    }
    return Status::Ok();
  }

  Status Read(size_t array, BinaryReader* reader) {
    for (size_t b = 0; b < storage_.size(); ++b) {
      KGE_RETURN_IF_ERROR(reader->ReadFloatArray(Of(b, array), sizes_[b]));
    }
    return Status::Ok();
  }

 private:
  struct FreeDeleter {
    void operator()(float* p) const { std::free(p); }
  };

  size_t arrays_;
  std::vector<size_t> sizes_;
  std::vector<std::unique_ptr<float[], FreeDeleter>> storage_;
};

class SgdOptimizer : public Optimizer {
 public:
  SgdOptimizer(std::vector<ParameterBlock*> blocks, const SgdOptions& options)
      : Optimizer(std::move(blocks)), options_(options), name_("sgd") {}

  const std::string& name() const override { return name_; }

  std::span<float> UpdateRow(size_t block_index, int64_t row,
                             std::span<const float> grad) override {
    float* params = StepStorage(block_index) + RowOffset(block_index, row);
    simd::SgdRow(lr_, grad.data(), params, grad.size());
    return {params, grad.size()};
  }

  void Reset() override {}

  double learning_rate() const override { return options_.learning_rate; }
  void set_learning_rate(double learning_rate) override {
    options_.learning_rate = learning_rate;
  }

  Status SaveState(BinaryWriter* writer) const override {
    return WriteStateHeader(name_, options_.learning_rate, writer);
  }

  Status LoadState(BinaryReader* reader) override {
    return ReadStateHeader(name_, reader, &options_.learning_rate);
  }

 protected:
  void AdvanceStep() override {
    lr_ = static_cast<float>(options_.learning_rate);
  }

 private:
  SgdOptions options_;
  std::string name_;
  float lr_ = 0.0f;
};

class AdagradOptimizer : public Optimizer {
 public:
  AdagradOptimizer(std::vector<ParameterBlock*> blocks,
                   const AdagradOptions& options)
      : Optimizer(std::move(blocks)),
        options_(options),
        name_("adagrad"),
        sums_(this->blocks(), 1) {}

  const std::string& name() const override { return name_; }

  std::span<float> UpdateRow(size_t block_index, int64_t row,
                             std::span<const float> grad) override {
    const size_t offset = RowOffset(block_index, row);
    float* params = StepStorage(block_index) + offset;
    simd::AdagradRow(lr_, eps_, grad.data(), sums_.Of(block_index, 0) + offset,
                     params, grad.size());
    return {params, grad.size()};
  }

  void Reset() override { sums_.Zero(); }

  double learning_rate() const override { return options_.learning_rate; }
  void set_learning_rate(double learning_rate) override {
    options_.learning_rate = learning_rate;
  }

  Status SaveState(BinaryWriter* writer) const override {
    KGE_RETURN_IF_ERROR(
        WriteStateHeader(name_, options_.learning_rate, writer));
    return sums_.Write(0, writer);
  }

  Status LoadState(BinaryReader* reader) override {
    KGE_RETURN_IF_ERROR(
        ReadStateHeader(name_, reader, &options_.learning_rate));
    return sums_.Read(0, reader);
  }

 protected:
  void AdvanceStep() override {
    lr_ = static_cast<float>(options_.learning_rate);
    eps_ = static_cast<float>(options_.epsilon);
  }

 private:
  AdagradOptions options_;
  std::string name_;
  MomentTable sums_;
  float lr_ = 0.0f;
  float eps_ = 0.0f;
};

// Lazy Adam: first/second moments are stored for every row but decayed
// and applied only when the row is touched, with bias correction based on
// the global step. This matches the sparse-Adam behaviour of the common
// deep learning frameworks' embedding training.
class AdamOptimizer : public Optimizer {
 public:
  AdamOptimizer(std::vector<ParameterBlock*> blocks, const AdamOptions& options)
      : Optimizer(std::move(blocks)),
        options_(options),
        name_("adam"),
        moments_(this->blocks(), 2) {}

  const std::string& name() const override { return name_; }

  std::span<float> UpdateRow(size_t block_index, int64_t row,
                             std::span<const float> grad) override {
    const size_t offset = RowOffset(block_index, row);
    float* params = StepStorage(block_index) + offset;
    simd::AdamRow(step_constants_, grad.data(),
                  moments_.Of(block_index, kFirst) + offset,
                  moments_.Of(block_index, kSecond) + offset, params,
                  grad.size());
    return {params, grad.size()};
  }

  void Reset() override {
    step_ = 0;
    moments_.Zero();
  }

  double learning_rate() const override { return options_.learning_rate; }
  void set_learning_rate(double learning_rate) override {
    options_.learning_rate = learning_rate;
  }

  Status SaveState(BinaryWriter* writer) const override {
    KGE_RETURN_IF_ERROR(
        WriteStateHeader(name_, options_.learning_rate, writer));
    KGE_RETURN_IF_ERROR(writer->WriteUint64(uint64_t(step_)));
    KGE_RETURN_IF_ERROR(moments_.Write(kFirst, writer));
    return moments_.Write(kSecond, writer);
  }

  Status LoadState(BinaryReader* reader) override {
    KGE_RETURN_IF_ERROR(
        ReadStateHeader(name_, reader, &options_.learning_rate));
    Result<uint64_t> step = reader->ReadUint64();
    if (!step.ok()) return step.status();
    step_ = int64_t(*step);
    KGE_RETURN_IF_ERROR(moments_.Read(kFirst, reader));
    return moments_.Read(kSecond, reader);
  }

 protected:
  void AdvanceStep() override {
    ++step_;
    const double bias1 = 1.0 - std::pow(options_.beta1, double(step_));
    const double bias2 = 1.0 - std::pow(options_.beta2, double(step_));
    step_constants_.beta1 = options_.beta1;
    step_constants_.beta2 = options_.beta2;
    step_constants_.lr = options_.learning_rate * std::sqrt(bias2) / bias1;
    step_constants_.eps = double(static_cast<float>(options_.epsilon));
  }

 private:
  AdamOptions options_;
  std::string name_;
  int64_t step_ = 0;
  simd::AdamRowStep step_constants_;
  // Arrays of moments_: the first (m) and second (v) moments.
  static constexpr size_t kFirst = 0;
  static constexpr size_t kSecond = 1;
  MomentTable moments_;
};

}  // namespace

Optimizer::Optimizer(std::vector<ParameterBlock*> blocks)
    : blocks_(std::move(blocks)), step_storage_(blocks_.size(), nullptr) {}

void Optimizer::BeginStep() {
  AdvanceStep();
  for (size_t b = 0; b < blocks_.size(); ++b) {
    step_storage_[b] = blocks_[b]->Flat().data();
  }
}

std::unique_ptr<Optimizer> MakeSgd(std::vector<ParameterBlock*> blocks,
                                   const SgdOptions& options) {
  return std::make_unique<SgdOptimizer>(std::move(blocks), options);
}

std::unique_ptr<Optimizer> MakeAdagrad(std::vector<ParameterBlock*> blocks,
                                       const AdagradOptions& options) {
  return std::make_unique<AdagradOptimizer>(std::move(blocks), options);
}

std::unique_ptr<Optimizer> MakeAdam(std::vector<ParameterBlock*> blocks,
                                    const AdamOptions& options) {
  return std::make_unique<AdamOptimizer>(std::move(blocks), options);
}

Result<std::unique_ptr<Optimizer>> MakeOptimizer(
    const std::string& name, std::vector<ParameterBlock*> blocks,
    double learning_rate) {
  if (name == "sgd") {
    SgdOptions options;
    options.learning_rate = learning_rate;
    return MakeSgd(std::move(blocks), options);
  }
  if (name == "adagrad") {
    AdagradOptions options;
    options.learning_rate = learning_rate;
    return MakeAdagrad(std::move(blocks), options);
  }
  if (name == "adam") {
    AdamOptions options;
    options.learning_rate = learning_rate;
    return MakeAdam(std::move(blocks), options);
  }
  return Status::InvalidArgument("unknown optimizer: " + name);
}

}  // namespace kge
