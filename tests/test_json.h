// Test-only JSON validity checker, substring counter and file reader,
// shared by the observability tests (obs_test.cc, flight_recorder_test.cc).
//
// Just enough of RFC 8259 to prove emitted metrics/trace/dump JSON is
// syntactically well-formed (Perfetto and Prometheus scrapers parse it
// with real parsers; a substring check alone would not catch a stray
// comma).

#ifndef GSPS_TESTS_TEST_JSON_H_
#define GSPS_TESTS_TEST_JSON_H_

#include <cctype>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

namespace gsps::testing {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!ParseValue()) return false;
    SkipWhitespace();
    return pos_ == text_.size();
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseLiteral(const char* literal) {
    const size_t n = std::string(literal).size();
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString() {
    if (!Consume('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // Skip the escaped character.
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool ParseObject() {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      SkipWhitespace();
      if (!ParseString()) return false;
      if (!Consume(':')) return false;
      if (!ParseValue()) return false;
    } while (Consume(','));
    return Consume('}');
  }

  bool ParseArray() {
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      if (!ParseValue()) return false;
    } while (Consume(','));
    return Consume(']');
  }

  bool ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return ParseLiteral("true");
      case 'f':
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

inline int CountOccurrences(const std::string& haystack,
                            const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Contents of the file at `path` (empty when it cannot be read).
inline std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace gsps::testing

#endif  // GSPS_TESTS_TEST_JSON_H_
