#include "net/fault_injection.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

namespace ppstats {

FaultInjectingChannel::FaultInjectingChannel(std::unique_ptr<Channel> inner,
                                             FaultInjectionOptions options,
                                             RandomSource& rng)
    : inner_(std::move(inner)), options_(options), rng_(&rng) {}

bool FaultInjectingChannel::ShouldFault() {
  if (counters_.frames <= options_.skip_frames) return false;
  if (counters_.faults() >= options_.max_faults) return false;
  double rate = std::clamp(options_.fault_rate, 0.0, 1.0);
  // Fixed-point comparison so the draw consumes exactly one uint64 from
  // the deterministic stream regardless of the rate.
  constexpr uint64_t kScale = uint64_t{1} << 32;
  return rng_->NextBelow(kScale) < static_cast<uint64_t>(rate * kScale);
}

FaultKind FaultInjectingChannel::PickKind() {
  std::vector<FaultKind> enabled;
  if (options_.delay) enabled.push_back(FaultKind::kDelay);
  if (options_.truncate) enabled.push_back(FaultKind::kTruncate);
  if (options_.garble) enabled.push_back(FaultKind::kGarble);
  if (options_.drop) enabled.push_back(FaultKind::kDrop);
  if (options_.disconnect) enabled.push_back(FaultKind::kDisconnect);
  if (enabled.empty()) return FaultKind::kDelay;  // delay is benign
  return enabled[rng_->NextBelow(enabled.size())];
}

std::optional<FaultKind> FaultInjectingChannel::PlanFault(BytesView frame,
                                                          Bytes* altered) {
  ++counters_.frames;
  if (!ShouldFault()) return std::nullopt;

  switch (PickKind()) {
    case FaultKind::kDelay:
      ++counters_.delays;
      return FaultKind::kDelay;
    case FaultKind::kTruncate: {
      if (frame.empty()) {
        ++counters_.drops;  // nothing to truncate; losing it is a drop
        return FaultKind::kDrop;
      }
      ++counters_.truncations;
      size_t keep = static_cast<size_t>(rng_->NextBelow(frame.size()));
      altered->assign(frame.begin(), frame.begin() + keep);
      return FaultKind::kTruncate;
    }
    case FaultKind::kGarble: {
      ++counters_.garbles;
      altered->assign(frame.begin(), frame.end());
      if (!altered->empty()) {
        size_t flips = 1 + static_cast<size_t>(rng_->NextBelow(8));
        for (size_t i = 0; i < flips; ++i) {
          size_t at = static_cast<size_t>(rng_->NextBelow(altered->size()));
          (*altered)[at] ^= static_cast<uint8_t>(1 + rng_->NextBelow(255));
        }
      }
      return FaultKind::kGarble;
    }
    case FaultKind::kDrop:
      ++counters_.drops;
      return FaultKind::kDrop;
    case FaultKind::kDisconnect:
      ++counters_.disconnects;
      return FaultKind::kDisconnect;
  }
  return FaultKind::kDrop;  // unreachable
}

Status FaultInjectingChannel::Disconnect() {
  final_stats_ = inner_->sent();
  inner_.reset();  // closes the transport; the peer sees EOF
  return Status::ProtocolError("channel closed by injected disconnect");
}

Status FaultInjectingChannel::Send(BytesView message) {
  if (inner_ == nullptr) {
    return Status::ProtocolError("channel closed by injected disconnect");
  }
  Bytes altered;
  std::optional<FaultKind> fault = PlanFault(message, &altered);
  if (!fault.has_value()) return inner_->Send(message);
  switch (*fault) {
    case FaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.delay_ms));
      return inner_->Send(message);
    case FaultKind::kTruncate:
    case FaultKind::kGarble:
      return inner_->Send(altered);
    case FaultKind::kDrop:
      return Status::OK();  // the peer waits for a frame that never comes
    case FaultKind::kDisconnect:
      return Disconnect();
  }
  return Status::Internal("unreachable fault kind");
}

Result<Bytes> FaultInjectingChannel::Receive() {
  const auto start = std::chrono::steady_clock::now();
  bool shortened = false;  // a drop cut the inner deadline to the rest
  for (;;) {
    if (inner_ == nullptr) {
      return Status::ProtocolError("channel closed by injected disconnect");
    }
    Result<Bytes> frame = inner_->Receive();
    if (shortened) inner_->set_read_deadline(read_deadline_);
    if (!frame.ok()) return frame;
    Bytes altered;
    std::optional<FaultKind> fault = PlanFault(*frame, &altered);
    if (!fault.has_value()) return frame;
    switch (*fault) {
      case FaultKind::kDelay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.delay_ms));
        return frame;
      case FaultKind::kTruncate:
      case FaultKind::kGarble:
        return altered;
      case FaultKind::kDrop:
        // Wait for the next frame, but only for what is left of this
        // call's deadline (at least 1 ms, so the inner channel reports
        // the expiry itself).
        if (read_deadline_.count() > 0) {
          const auto elapsed =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start);
          inner_->set_read_deadline(std::max(
              read_deadline_ - elapsed, std::chrono::milliseconds(1)));
          shortened = true;
        }
        continue;
      case FaultKind::kDisconnect:
        return Disconnect();
    }
    return Status::Internal("unreachable fault kind");
  }
}

TrafficStats FaultInjectingChannel::sent() const {
  return inner_ != nullptr ? inner_->sent() : final_stats_;
}

void FaultInjectingChannel::set_read_deadline(
    std::chrono::milliseconds deadline) {
  read_deadline_ = deadline;
  if (inner_ != nullptr) inner_->set_read_deadline(deadline);
}

void FaultInjectingChannel::set_write_deadline(
    std::chrono::milliseconds deadline) {
  if (inner_ != nullptr) inner_->set_write_deadline(deadline);
}

}  // namespace ppstats
