/// \file trace.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// A span is one call into a library layer, recorded from outside the
/// library: name ("<layer>.<call>"), start, end, the span that caused it
/// and the run id shared by every span of one harness process.  Spans
/// stay in per-thread buffers while the run is measured and are written
/// out once, after measurement ends.  With tracing off `scope` records
/// nothing and reads no clock, so the untraced run pays only a branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

struct span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the same thread's buffer
  std::uint32_t thread = 0;
};

class tracer {
 public:
  tracer(std::string run_id, clock_type::time_point origin)
      : run_id_(std::move(run_id)), origin_(origin) {}

  /// A buffer owned by one thread: spans open and close in LIFO order on
  /// it, which is what makes `parent` the innermost open span.
  struct buffer {
    std::vector<span> spans;
    std::vector<std::int64_t> open;
    std::uint32_t thread = 0;
  };

  /// Hands out a buffer for one thread (stable address; merged at dump).
  buffer& thread_buffer() {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back(new buffer);
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    return *buffers_.back();
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now() - origin_)
        .count();
  }

  /// Records one span for the lifetime of the object when `on`.
  class scope {
   public:
    scope(tracer& t, buffer& b, const char* name, bool on) {
      if (!on) return;
      t_ = &t;
      b_ = &b;
      index_ = static_cast<std::int64_t>(b.spans.size());
      span s;
      s.name = name;
      s.parent = b.open.empty() ? -1 : b.open.back();
      s.thread = b.thread;
      s.start_ns = t.now_ns();
      b.spans.push_back(std::move(s));
      b.open.push_back(index_);
    }
    ~scope() {
      if (t_ == nullptr) return;
      b_->spans[static_cast<std::size_t>(index_)].end_ns = t_->now_ns();
      b_->open.pop_back();
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

    /// Duration so far in milliseconds (0 when not recording).
    [[nodiscard]] double elapsed_ms() const {
      if (t_ == nullptr) return 0.0;
      return static_cast<double>(
                 t_->now_ns() -
                 b_->spans[static_cast<std::size_t>(index_)].start_ns) /
             1e6;
    }

   private:
    tracer* t_ = nullptr;
    buffer* b_ = nullptr;
    std::int64_t index_ = -1;
  };

  /// Self time per layer (the text before the first '.'), in ms: each
  /// span's duration minus the part its direct children cover.  Children
  /// of one span run one after another on its thread, so their durations
  /// add without overlap.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const {
    std::map<std::string, double> out;
    for (const auto& b : buffers_) {
      std::vector<std::int64_t> child_ns(b->spans.size(), 0);
      for (const span& s : b->spans)
        if (s.parent >= 0)
          child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const span& s = b->spans[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] +=
            static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t span_count() const {
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->spans.size();
    return n;
  }

  /// Writes every span as one JSON object per line.
  void write_jsonl(std::FILE* out) const {
    for (const auto& b : buffers_) {
      for (std::size_t i = 0; i < b->spans.size(); ++i) {
        const span& s = b->spans[i];
        std::fprintf(out,
                     "{\"run\":\"%s\",\"thread\":%u,\"id\":%zu,"
                     "\"parent\":%lld,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld}\n",
                     run_id_.c_str(), s.thread, i,
                     static_cast<long long>(s.parent), s.name.c_str(),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
      }
    }
  }

 private:
  std::string run_id_;
  clock_type::time_point origin_;
  std::mutex mu_;
  std::vector<std::unique_ptr<buffer>> buffers_;
};

}  // namespace perfbench
