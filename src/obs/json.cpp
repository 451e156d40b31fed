#include "obs/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace gcr::obs::json {

std::string quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  // %.17g round-trips any double; shorter representations print shorter.
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  assert(ec == std::errc());
  return {buf, ptr};
}

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ > 0 && (has_elem_ & (1ull << (depth_ - 1)))) os_ << ',';
  if (depth_ > 0) has_elem_ |= 1ull << (depth_ - 1);
}

Writer& Writer::begin_object() {
  separate();
  assert(depth_ < 64);
  os_ << '{';
  ++depth_;
  has_elem_ &= ~(1ull << (depth_ - 1));
  return *this;
}

Writer& Writer::end_object() {
  assert(depth_ > 0 && !after_key_);
  --depth_;
  os_ << '}';
  return *this;
}

Writer& Writer::begin_array() {
  separate();
  assert(depth_ < 64);
  os_ << '[';
  ++depth_;
  has_elem_ &= ~(1ull << (depth_ - 1));
  return *this;
}

Writer& Writer::end_array() {
  assert(depth_ > 0 && !after_key_);
  --depth_;
  os_ << ']';
  return *this;
}

Writer& Writer::key(std::string_view k) {
  assert(!after_key_);
  separate();
  os_ << quote(k) << ':';
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  separate();
  os_ << quote(s);
  return *this;
}

Writer& Writer::value(double v) {
  separate();
  os_ << number(v);
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  separate();
  os_ << v;
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  separate();
  os_ << v;
  return *this;
}

Writer& Writer::value(bool b) {
  separate();
  os_ << (b ? "true" : "false");
  return *this;
}

Writer& Writer::null() {
  separate();
  os_ << "null";
  return *this;
}

Writer& Writer::raw(std::string_view token) {
  separate();
  os_ << token;
  return *this;
}

namespace {

/// Recursive-descent syntax checker. `p` advances over one construct;
/// returns false on the first violation.
class Checker {
 public:
  explicit Checker(std::string_view s) : s_(s) {}

  bool run() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] int peek() const {
    return pos_ < s_.size() ? static_cast<unsigned char>(s_[pos_]) : -1;
  }

  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool value() {
    if (++nesting_ > 256) return false;  // defend the test against cycles
    bool ok = false;
    switch (peek()) {
      case '{': ok = object(); break;
      case '[': ok = array(); break;
      case '"': ok = string(); break;
      case 't': ok = literal("true"); break;
      case 'f': ok = literal("false"); break;
      case 'n': ok = literal("null"); break;
      default: ok = number(); break;
    }
    --nesting_;
    return ok;
  }

  bool object() {
    eat('{');
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    eat('[');
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool string() {
    if (!eat('"')) return false;
    while (true) {
      const int c = peek();
      if (c < 0 || c < 0x20) return false;  // unterminated or raw control
      ++pos_;
      if (c == '"') return true;
      if (c == '\\') {
        const int e = peek();
        ++pos_;
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(peek())) return false;
            ++pos_;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
    }
  }

  bool number() {
    eat('-');
    if (!std::isdigit(peek())) return false;
    if (!eat('0'))
      while (std::isdigit(peek())) ++pos_;
    if (eat('.')) {
      if (!std::isdigit(peek())) return false;
      while (std::isdigit(peek())) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(peek())) return false;
      while (std::isdigit(peek())) ++pos_;
    }
    return true;
  }

  std::string_view s_;
  std::size_t pos_{0};
  int nesting_{0};
};

/// Recursive-descent parser building a `Value` tree. Mirrors the Checker's
/// grammar exactly so `parse(doc).has_value() == valid(doc)` for any input
/// that fits in memory.
class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  std::optional<Value> run() {
    skip_ws();
    std::optional<Value> v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] int peek() const {
    return pos_ < s_.size() ? static_cast<unsigned char>(s_[pos_]) : -1;
  }

  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::optional<Value> value() {
    if (++nesting_ > 256) return std::nullopt;
    std::optional<Value> out;
    switch (peek()) {
      case '{': out = object(); break;
      case '[': out = array(); break;
      case '"': {
        std::optional<std::string> s = string();
        if (s) out = Value(std::move(*s));
        break;
      }
      case 't': if (literal("true")) out = Value(true); break;
      case 'f': if (literal("false")) out = Value(false); break;
      case 'n': if (literal("null")) out = Value(nullptr); break;
      default: out = number(); break;
    }
    --nesting_;
    return out;
  }

  /// Returns build the Value in place: a temporary moved into the optional
  /// makes gcc 12 -O2 warn -Wmaybe-uninitialized about the variant.
  std::optional<Value> object() {
    eat('{');
    Value::Object obj;
    skip_ws();
    if (eat('}')) return std::optional<Value>(std::in_place, std::move(obj));
    while (true) {
      skip_ws();
      std::optional<std::string> k = string();
      if (!k) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      skip_ws();
      std::optional<Value> v = value();
      if (!v) return std::nullopt;
      obj.insert_or_assign(std::move(*k), std::move(*v));
      skip_ws();
      if (eat('}')) return std::optional<Value>(std::in_place, std::move(obj));
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<Value> array() {
    eat('[');
    Value::Array arr;
    skip_ws();
    if (eat(']')) return Value(std::move(arr));
    while (true) {
      skip_ws();
      std::optional<Value> v = value();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      skip_ws();
      if (eat(']')) return Value(std::move(arr));
      if (!eat(',')) return std::nullopt;
    }
  }

  /// Append `cp` to `out` as UTF-8.
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  std::optional<unsigned> hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const int c = peek();
      if (!std::isxdigit(c)) return std::nullopt;
      v = v * 16 + static_cast<unsigned>(
                       c <= '9' ? c - '0' : (std::tolower(c) - 'a' + 10));
      ++pos_;
    }
    return v;
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (true) {
      const int c = peek();
      if (c < 0 || c < 0x20) return std::nullopt;
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
      const int e = peek();
      ++pos_;
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::optional<unsigned> hi = hex4();
          if (!hi) return std::nullopt;
          unsigned cp = *hi;
          if (cp >= 0xd800 && cp <= 0xdbff && literal("\\u")) {
            const std::optional<unsigned> lo = hex4();
            if (!lo || *lo < 0xdc00 || *lo > 0xdfff) return std::nullopt;
            cp = 0x10000 + ((cp - 0xd800) << 10) + (*lo - 0xdc00);
          }
          append_utf8(out, cp);
          break;
        }
        default: return std::nullopt;
      }
    }
  }

  std::optional<Value> number() {
    const std::size_t start = pos_;
    eat('-');
    if (!std::isdigit(peek())) return std::nullopt;
    if (!eat('0'))
      while (std::isdigit(peek())) ++pos_;
    if (eat('.')) {
      if (!std::isdigit(peek())) return std::nullopt;
      while (std::isdigit(peek())) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(peek())) return std::nullopt;
      while (std::isdigit(peek())) ++pos_;
    }
    double d = 0.0;
    const char* first = s_.data() + start;
    const char* last = s_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || ptr != last) return std::nullopt;
    return Value(d);
  }

  std::string_view s_;
  std::size_t pos_{0};
  int nesting_{0};
};

}  // namespace

bool valid(std::string_view doc) { return Checker(doc).run(); }

std::optional<Value> parse(std::string_view doc) { return Parser(doc).run(); }

void require(std::vector<std::string>& problems, bool ok,
             std::string_view what) {
  if (!ok) problems.emplace_back(what);
}

bool has(const Value& obj, std::string_view key,
         bool (Value::*is_kind)() const) {
  const Value* v = obj.find(key);
  return v && (v->*is_kind)();
}

bool check_header(std::vector<std::string>& problems, const Value& doc,
                  std::string_view schema, std::string_view version_key,
                  int version) {
  if (!doc.is_object()) {
    problems.emplace_back("document is not a JSON object");
    return false;
  }
  const Value* s = doc.find("schema");
  require(problems, s && s->is_string() && s->as_string() == schema,
          "schema != " + quote(schema));
  const Value* v = doc.find(version_key);
  require(problems,
          v && v->is_number() && static_cast<int>(v->as_number()) == version,
          std::string(version_key) + " != " + std::to_string(version));
  return true;
}

}  // namespace gcr::obs::json
