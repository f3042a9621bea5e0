// Streaming JSON writer: the one place the repo's JSON documents get
// their number format, string escaping and layout.
//
// - A double prints as %.17g, which round-trips exactly, so identical
//   runs give identical bytes; a non-finite double prints as null.
// - Strings and keys escape `"`, `\`, newline and tab as \" \\ \n \t,
//   and other control bytes as \u00XX; all other bytes (UTF-8
//   included) are copied as they are.
// - A block container puts each member on its own line, indented two
//   spaces per block level, and its closing bracket at the enclosing
//   level; an inline container joins its members with ", ". An empty
//   container prints [] or {}.
//
// Values go straight to the stream: nothing is allocated per value.
// Misuse (a key outside an object, a member without a key, an
// unbalanced End*) is a programming error and fails a STRIP_CHECK.

#ifndef STRIP_BASE_JSON_WRITER_H_
#define STRIP_BASE_JSON_WRITER_H_

#include <charconv>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace strip::base {

// A double as JsonWriter prints it, for text formats (CSV) that share
// the JSON number rule.
std::string JsonNumber(double value);

class JsonWriter {
 public:
  enum class Layout { kBlock, kInline };

  // `depth` is the block level the first container opens at, so that a
  // fragment can sit inside a document other code writes.
  explicit JsonWriter(std::ostream& out, int depth = 0);
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& BeginObject(Layout layout = Layout::kBlock) {
    return Open('{', '}', layout);
  }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray(Layout layout = Layout::kBlock) {
    return Open('[', ']', layout);
  }
  JsonWriter& EndArray() { return Close(']'); }
  // Names the member of the enclosing object that the next value fills.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  // Null when empty.
  JsonWriter& Number(const std::optional<double>& value) {
    return value ? Number(*value) : Null();
  }
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T> &&
                                                    !std::is_same_v<T, bool>>>
  JsonWriter& Number(T value) {
    char buffer[24];
    const char* end = std::to_chars(buffer, buffer + 24, value).ptr;
    return Raw({buffer, static_cast<std::size_t>(end - buffer)});
  }
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }

 private:
  struct Frame {
    char close;  // '}' or ']'
    bool block;
    bool key_pending;
    int members;
  };

  // Writes a value's text verbatim.
  JsonWriter& Raw(std::string_view text);
  JsonWriter& Open(char open, char close, Layout layout);
  JsonWriter& Close(char close);
  // Writes what precedes a member: the comma, then a new line in a
  // block container or a space in an inline one.
  void NextMember();
  void NewLine();
  void BeforeValue();
  void WriteString(std::string_view text);

  std::ostream& out_;
  int level_;
  std::vector<Frame> frames_;
};

}  // namespace strip::base

#endif  // STRIP_BASE_JSON_WRITER_H_
