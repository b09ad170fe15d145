// Checked whole-file output for the command-line tools.

#ifndef GSPS_COMMON_FILE_IO_H_
#define GSPS_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

namespace gsps {

// Writes `content` to `path`, replacing the file. Returns false unless
// every byte was written and the file closed cleanly, so a full disk is
// reported rather than leaving a silently truncated file.
bool WriteWholeFile(const std::string& path, std::string_view content);

// Writes a snapshot of the global metrics registry (Prometheus text, or one
// JSON object when `json`) to `destination`, or to stdout when it is "-".
// Returns false when the write fails.
bool WriteMetricsSnapshot(const std::string& destination, bool json);

}  // namespace gsps

#endif  // GSPS_COMMON_FILE_IO_H_
