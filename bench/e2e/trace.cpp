#include <fstream>

#include "common/json.hpp"
#include "e2e.hpp"

namespace portabench::e2e {

Tracer::Tracer(std::size_t capacity) : epoch_ns_(now_ns()) { spans_.reserve(capacity); }

void Tracer::push(const Span& s) noexcept {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  spans_.push_back(s);
}

void Tracer::span(const char* name, const char* category, std::int64_t begin_ns,
                  std::int64_t end_ns, std::uint64_t id, std::uint32_t lane) noexcept {
  push(Span{name, category, begin_ns, end_ns, id, lane, false});
}

void Tracer::async_span(const char* name, const char* category, std::int64_t begin_ns,
                        std::int64_t end_ns, std::uint64_t id) noexcept {
  push(Span{name, category, begin_ns, end_ns, id, 0, true});
}

bool Tracer::write_chrome(const std::string& path) const {
  const auto us = [this](std::int64_t ns) { return static_cast<double>(ns - epoch_ns_) * 1e-3; };
  const auto common = [](JsonWriter& w, const Span& s, const char* phase) {
    w.key("name");
    w.value(s.name);
    w.key("cat");
    w.value(s.category);
    w.key("ph");
    w.value(phase);
    w.key("pid");
    w.value(std::size_t{1});
    w.key("tid");
    w.value(static_cast<std::size_t>(s.lane));
  };
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans_) {
    if (s.async) {
      // Nestable async begin/end pair keyed by the request id.
      for (const bool begin : {true, false}) {
        w.begin_object();
        common(w, s, begin ? "b" : "e");
        w.key("id");
        w.value(static_cast<std::size_t>(s.id));
        w.key("ts");
        w.value(us(begin ? s.begin_ns : s.end_ns));
        w.end_object();
      }
      continue;
    }
    w.begin_object();
    common(w, s, "X");
    w.key("ts");
    w.value(us(s.begin_ns));
    w.key("dur");
    w.value(static_cast<double>(s.end_ns - s.begin_ns) * 1e-3);
    w.key("args");
    w.begin_object();
    w.key("id");
    w.value(static_cast<std::size_t>(s.id));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace portabench::e2e
