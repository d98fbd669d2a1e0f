#include "net/channel.h"

#include <deque>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace ppstats {

ChannelMetrics& ChannelMetrics::Get() {
  static ChannelMetrics* metrics = [] {  // leaked on purpose
    obs::MetricRegistry& registry = obs::MetricRegistry::Global();
    auto* m = new ChannelMetrics();
    m->frames_sent = registry.GetCounter("net.frames_sent");
    m->bytes_sent = registry.GetCounter("net.bytes_sent");
    m->frames_received = registry.GetCounter("net.frames_received");
    m->bytes_received = registry.GetCounter("net.bytes_received");
    m->deadline_expirations =
        registry.GetCounter("net.deadline_expirations");
    return m;
  }();
  return *metrics;
}

Result<uint32_t> DecodeFrameLength(const uint8_t* prefix, size_t max_bytes) {
  const uint32_t length = LoadBigEndian32(prefix);
  if (length > max_bytes) {
    return Status::ProtocolError("incoming frame exceeds the limit");
  }
  return length;
}

namespace {

// One direction of a duplex in-memory pipe.
struct Queue {
  Mutex mu;
  CondVar cv;
  std::deque<Bytes> messages PPSTATS_GUARDED_BY(mu);
  bool closed PPSTATS_GUARDED_BY(mu) = false;

  void Push(BytesView msg) PPSTATS_EXCLUDES(mu) {
    {
      MutexLock lock(mu);
      messages.emplace_back(msg.begin(), msg.end());
    }
    cv.NotifyOne();
  }

  Result<Bytes> Pop(std::chrono::milliseconds deadline) PPSTATS_EXCLUDES(mu) {
    MutexLock lock(mu);
    if (deadline.count() > 0) {
      const auto until = std::chrono::steady_clock::now() + deadline;
      while (messages.empty() && !closed) {
        if (!cv.WaitUntil(mu, until) && messages.empty() && !closed) {
          return Status::DeadlineExceeded("receive ran past the deadline");
        }
      }
    } else {
      while (messages.empty() && !closed) cv.Wait(mu);
    }
    if (messages.empty()) {
      return Status::ProtocolError("peer closed the channel");
    }
    Bytes out = std::move(messages.front());
    messages.pop_front();
    return out;
  }

  bool SendClosed() PPSTATS_EXCLUDES(mu) {
    MutexLock lock(mu);
    return closed;
  }

  void Close() PPSTATS_EXCLUDES(mu) {
    {
      MutexLock lock(mu);
      closed = true;
    }
    cv.NotifyAll();
  }
};

class PipeEndpoint : public Channel {
 public:
  PipeEndpoint(std::shared_ptr<Queue> outgoing, std::shared_ptr<Queue> incoming)
      : outgoing_(std::move(outgoing)), incoming_(std::move(incoming)) {}

  ~PipeEndpoint() override { outgoing_->Close(); }

  Status Send(BytesView message) override {
    if (outgoing_->SendClosed()) {
      return Status::ProtocolError("channel is closed");
    }
    stats_.Record(message.size() + kFrameOverheadBytes);
    ChannelMetrics& metrics = ChannelMetrics::Get();
    metrics.frames_sent->Increment();
    metrics.bytes_sent->Add(message.size() + kFrameOverheadBytes);
    outgoing_->Push(message);
    return Status::OK();
  }

  Result<Bytes> Receive() override {
    Result<Bytes> out = incoming_->Pop(read_deadline_);
    ChannelMetrics& metrics = ChannelMetrics::Get();
    if (out.ok()) {
      metrics.frames_received->Increment();
      metrics.bytes_received->Add(out->size() + kFrameOverheadBytes);
    } else if (out.status().code() == StatusCode::kDeadlineExceeded) {
      metrics.deadline_expirations->Increment();
    }
    return out;
  }

  TrafficStats sent() const override { return stats_; }

  void set_read_deadline(std::chrono::milliseconds deadline) override {
    read_deadline_ = deadline;
  }
  // The outgoing queue is unbounded, so Send never blocks and the write
  // deadline is intentionally a no-op (see channel.h).

 private:
  std::shared_ptr<Queue> outgoing_;
  std::shared_ptr<Queue> incoming_;
  std::chrono::milliseconds read_deadline_{0};
  TrafficStats stats_;
};

}  // namespace

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>
DuplexPipe::Create() {
  auto a_to_b = std::make_shared<Queue>();
  auto b_to_a = std::make_shared<Queue>();
  return {std::make_unique<PipeEndpoint>(a_to_b, b_to_a),
          std::make_unique<PipeEndpoint>(b_to_a, a_to_b)};
}

}  // namespace ppstats
