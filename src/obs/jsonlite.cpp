#include "obs/jsonlite.hpp"

#include <cctype>
#include <cstdint>
#include <stdexcept>

#include "obs/obs.hpp"

namespace hsis::obs::jsonlite {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse() {
    Value v = value();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;

  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error(std::string("json: ") + why + " at offset " +
                             std::to_string(pos_));
  }
  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  char peek() {
    skipWs();
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  Value value() {
    switch (peek()) {
      case '{': return objectValue();
      case '[': return arrayValue();
      case '"': return Value{stringValue()};
      case 't': literal("true"); return Value{true};
      case 'f': literal("false"); return Value{false};
      case 'n': literal("null"); return Value{nullptr};
      default: return numberValue();
    }
  }

  void literal(std::string_view word) {
    skipWs();
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  /// Four hex digits after a \u, or fail.
  uint32_t hex4() {
    if (pos_ + 4 > text_.size()) fail("bad \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<uint32_t>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return v;
  }

  void appendUtf8(std::string& out, uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string stringValue() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            uint32_t cp = hex4();
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be followed by \uDC00..\uDFFF.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u')
                fail("lone high surrogate");
              pos_ += 2;
              uint32_t lo = hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              fail("lone low surrogate");
            }
            appendUtf8(out, cp);
            break;
          }
          default: out.push_back(e); break;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        // RFC 8259: control characters must be escaped inside strings.
        --pos_;
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    expect('"');
    return out;
  }

  Value numberValue() {
    skipWs();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected number");
    return Value{std::stod(std::string(text_.substr(start, pos_ - start)))};
  }

  Value arrayValue() {
    expect('[');
    auto arr = std::make_shared<Array>();
    if (peek() == ']') {
      ++pos_;
      return Value{arr};
    }
    while (true) {
      arr->push_back(value());
      char c = peek();
      ++pos_;
      if (c == ']') return Value{arr};
      if (c != ',') fail("expected , or ]");
    }
  }

  Value objectValue() {
    expect('{');
    auto obj = std::make_shared<Object>();
    if (peek() == '}') {
      ++pos_;
      return Value{obj};
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = stringValue();
      expect(':');
      (*obj)[key] = value();
      char c = peek();
      ++pos_;
      if (c == '}') return Value{obj};
      if (c != ',') fail("expected , or }");
    }
  }
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse(); }

const Value* find(const Object& obj, const std::string& key) {
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

void fieldError(std::string_view schema, std::string_view field,
                std::string_view what) {
  std::string msg(schema);
  msg.append(": field '").append(field).append("' ").append(what);
  throw std::runtime_error(msg);
}

double number(const Value& v, std::string_view schema, std::string_view field) {
  if (!v.isNumber()) fieldError(schema, field, "is not a number");
  return v.number();
}

const std::string& str(const Value& v, std::string_view schema,
                       std::string_view field) {
  if (!v.isString()) fieldError(schema, field, "is not a string");
  return v.str();
}

bool boolean(const Value& v, std::string_view schema, std::string_view field) {
  if (!std::holds_alternative<bool>(v.v))
    fieldError(schema, field, "is not a boolean");
  return v.boolean();
}

const Object& object(const Value& v, std::string_view schema,
                     std::string_view field) {
  if (!v.isObject()) fieldError(schema, field, "is not an object");
  return v.object();
}

const Array& array(const Value& v, std::string_view schema,
                   std::string_view field) {
  if (!v.isArray()) fieldError(schema, field, "is not an array");
  return v.array();
}

std::vector<const Object*> objects(const Value& v, std::string_view schema,
                                   std::string_view field) {
  const std::string element = std::string(field) + "[]";
  std::vector<const Object*> out;
  for (const Value& e : array(v, schema, field))
    out.push_back(&object(e, schema, element));
  return out;
}

void appendQuoted(std::string& out, std::string_view s) {
  out += '"';
  size_t clean = 0;  // start of the pending run of verbatim bytes
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, clean, i - clean);
    clean = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += "0123456789abcdef"[c >> 4];
        out += "0123456789abcdef"[c & 0xF];
    }
  }
  out.append(s, clean);
  out += '"';
}

Writer& Writer::key(std::string_view k) {
  item();
  appendQuoted(out_, k);
  out_ += ": ";
  afterKey_ = true;
  return *this;
}

Writer& Writer::value(double d) { return raw(jsonDouble(d)); }

}  // namespace hsis::obs::jsonlite
