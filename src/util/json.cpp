#include "util/json.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace drhw::json {

const Value* Value::find(const std::string& key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (!v) throw std::invalid_argument("JSON: missing key '" + key + "'");
  return *v;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& context)
      : text_(text), context_(context) {}

  Value parse() {
    Value v = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument(context_ + ": " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value parse_value() {
    skip_space();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Value v;
        v.kind = Value::Kind::string;
        v.text = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Value v;
        v.kind = Value::Kind::boolean;
        v.boolean = peek() == 't';
        const char* word = v.boolean ? "true" : "false";
        for (const char* c = word; *c; ++c) expect(*c);
        return v;
      }
      case 'n': {
        for (const char* c = "null"; *c; ++c) expect(*c);
        return Value{};
      }
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::object;
    expect('{');
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_space();
      std::string key = parse_string();
      skip_space();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    Value v;
    v.kind = Value::Kind::array;
    expect('[');
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) fail("lone low surrogate");
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (text_.compare(pos_, 2, "\\u") != 0)
              fail("lone high surrogate");
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("lone high surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  /// The four hex digits of a `\u` escape, as a code unit.
  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      const char c = text_[pos_];
      unsigned digit = 0;
      if (c >= '0' && c <= '9')
        digit = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        digit = static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        digit = static_cast<unsigned>(c - 'A' + 10);
      else
        fail("non-hex digit in \\u escape");
      code = code * 16 + digit;
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    Value v;
    v.kind = Value::Kind::number;
    v.text = text_.substr(start, pos_ - start);
    char* end = nullptr;
    v.number = std::strtod(v.text.c_str(), &end);
    if (end != v.text.c_str() + v.text.size()) fail("malformed number");
    return v;
  }

  const std::string& text_;
  const std::string& context_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text, const std::string& context) {
  return Parser(text, context).parse();
}

}  // namespace drhw::json
