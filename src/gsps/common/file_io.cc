#include "gsps/common/file_io.h"

#include <cstdio>

#include "gsps/obs/metrics.h"

namespace gsps {

bool WriteWholeFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose flushes the buffer, so it reports a late write failure too.
  return std::fclose(f) == 0 && written;
}

bool WriteMetricsSnapshot(const std::string& destination, bool json) {
  const obs::MetricSink snapshot = obs::MetricsRegistry::Global().Snapshot();
  const std::string text =
      json ? obs::ToMetricsJson(snapshot) : obs::ToPrometheusText(snapshot);
  if (destination != "-") return WriteWholeFile(destination, text);
  bool written = std::fwrite(text.data(), 1, text.size(), stdout) ==
                 text.size();
  if (json) written = std::fputc('\n', stdout) != EOF && written;
  return std::fflush(stdout) == 0 && written;
}

}  // namespace gsps
