#include "obs/telemetry.hpp"

#include <stdexcept>

namespace tridsolve::obs {

JsonlSink::JsonlSink(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    throw std::runtime_error("JsonlSink: cannot open " + path +
                             " for writing");
  }
  file_ = std::shared_ptr<std::FILE>(f, [](std::FILE* p) { std::fclose(p); });
}

void JsonlSink::write(const JsonValue& record) {
  if (!file_) return;
  const std::string line = record.dump();
  std::fwrite(line.data(), 1, line.size(), file_.get());
  std::fputc('\n', file_.get());
  std::fflush(file_.get());
}

}  // namespace tridsolve::obs
