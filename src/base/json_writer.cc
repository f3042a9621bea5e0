#include "base/json_writer.h"

#include <cmath>
#include <cstdio>

#include "base/check.h"

namespace strip::base {

namespace {

// Longest %.17g output ("-2.2250738585072014e-308") plus the NUL.
constexpr std::size_t kNumberBufferSize = 32;

// Formats `value` into `buffer` and returns the end of the text.
char* FormatDouble(double value, char* buffer) {
  const int size =
      std::isfinite(value)
          ? std::snprintf(buffer, kNumberBufferSize, "%.17g", value)
          : std::snprintf(buffer, kNumberBufferSize, "null");
  return buffer + size;
}

}  // namespace

std::string JsonNumber(double value) {
  char buffer[kNumberBufferSize];
  return std::string(buffer, FormatDouble(value, buffer));
}

JsonWriter::JsonWriter(std::ostream& out, int depth)
    : out_(out), level_(depth) {
  frames_.reserve(8);  // deeper than any document here nests
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  STRIP_CHECK_MSG(!frames_.empty() && frames_.back().close == '}',
                  "JSON key outside an object");
  STRIP_CHECK_MSG(!frames_.back().key_pending, "JSON key without a value");
  NextMember();
  WriteString(key);
  out_.write(": ", 2);
  frames_.back().key_pending = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  WriteString(value);
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  char buffer[kNumberBufferSize];
  const char* end = FormatDouble(value, buffer);
  return Raw({buffer, static_cast<std::size_t>(end - buffer)});
}

JsonWriter& JsonWriter::Raw(std::string_view text) {
  BeforeValue();
  out_.write(text.data(), static_cast<std::streamsize>(text.size()));
  return *this;
}

JsonWriter& JsonWriter::Open(char open, char close, Layout layout) {
  BeforeValue();
  out_.put(open);
  frames_.push_back({close, layout == Layout::kBlock, false, 0});
  if (frames_.back().block) ++level_;
  return *this;
}

JsonWriter& JsonWriter::Close(char close) {
  STRIP_CHECK_MSG(!frames_.empty() && frames_.back().close == close,
                  "unbalanced JSON End*");
  const Frame frame = frames_.back();
  STRIP_CHECK_MSG(!frame.key_pending, "JSON key without a value");
  frames_.pop_back();
  if (frame.block) {
    --level_;
    if (frame.members > 0) NewLine();
  }
  out_.put(close);
  return *this;
}

void JsonWriter::NextMember() {
  Frame& frame = frames_.back();
  if (frame.members++ > 0) out_.put(',');
  if (frame.block) {
    NewLine();
  } else if (frame.members > 1) {
    out_.put(' ');
  }
}

void JsonWriter::NewLine() {
  out_.put('\n');
  for (int i = 0; i < level_; ++i) out_.write("  ", 2);
}

void JsonWriter::BeforeValue() {
  if (frames_.empty()) return;
  Frame& frame = frames_.back();
  if (frame.close == ']') {
    NextMember();
  } else {
    STRIP_CHECK_MSG(frame.key_pending, "JSON object member without a key");
    frame.key_pending = false;
  }
}

void JsonWriter::WriteString(std::string_view text) {
  out_.put('"');
  std::size_t done = 0;  // text[0, done) is written
  for (std::size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.write(text.data() + done, static_cast<std::streamsize>(i - done));
    done = i + 1;
    out_.put('\\');
    if (c == '"' || c == '\\') {
      out_.put(static_cast<char>(c));
    } else if (c == '\n') {
      out_.put('n');
    } else if (c == '\t') {
      out_.put('t');
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      const char code[5] = {'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      out_.write(code, 5);
    }
  }
  out_.write(text.data() + done,
             static_cast<std::streamsize>(text.size() - done));
  out_.put('"');
}

}  // namespace strip::base
