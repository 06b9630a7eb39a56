#include "analysis/outline.hpp"

#include <algorithm>
#include <set>

namespace rush::analysis {

namespace {

using SV = std::string_view;

/// Names that can sit directly before a '(' without being a function
/// name — built-in types and statement keywords. Seeing one of these as
/// the walked-back "name" means the head was not a function declarator.
const std::set<SV>& non_names() {
  static const std::set<SV> kSet = {
      "void",   "int",      "bool",   "char",   "float",  "double", "long",
      "short",  "unsigned", "signed", "auto",   "return", "if",     "while",
      "for",    "switch",   "sizeof", "new",    "delete", "throw",  "catch",
      "typeid", "alignof",  "co_return", "co_await", "co_yield", "decltype"};
  return kSet;
}

/// Everything scan_head() learns about one statement head [s, e).
struct HeadScan {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t first_open = kNone;  // first '(' outside angles/brackets
  std::size_t params_end = kNone;  // its matching ')'
  std::size_t eq = kNone;          // first standalone top-level '='
  std::size_t class_key = kNone;   // class/struct/union token index
  std::size_t sig_end = 0;         // e, or the ctor-init-list ':' if present
  bool is_namespace = false;
  bool is_extern_block = false;
  bool is_enum = false;
  bool is_using = false;  // using/typedef/static_assert/concept/requires
  bool inline_like = false;
  bool is_static = false;
  bool is_friend = false;
  bool is_virtual = false;
  bool is_const_tail = false;  // const between ')' and the body/semicolon
  bool is_defaulted = false;   // = default / = delete / = 0 after ')'
};

HeadScan scan_head(const SourceFile& f, std::size_t s, std::size_t e) {
  HeadScan h;
  h.sig_end = e;
  int pdepth = 0, adepth = 0, bdepth = 0;
  bool saw_extern = false;
  for (std::size_t k = s; k < e; ++k) {
    const Token& tk = f.tokens[k];
    const SV kt = f.tok(k);
    if (tk.kind == TokenKind::kPunct) {
      if (kt == "(") {
        if (pdepth == 0 && adepth == 0 && bdepth == 0 && h.first_open == HeadScan::kNone) {
          h.first_open = k;
        }
        ++pdepth;
      } else if (kt == ")") {
        --pdepth;
        if (pdepth == 0 && h.first_open != HeadScan::kNone && h.params_end == HeadScan::kNone) {
          h.params_end = k;
        }
      } else if (kt == "[") {
        ++bdepth;
      } else if (kt == "]") {
        --bdepth;
      } else if (kt == "<" && pdepth == 0 && bdepth == 0) {
        // Template-argument heuristic: '<' directly after an identifier
        // (that is not `operator`) opens angles; comparisons do not occur
        // in declaration heads at outline scope.
        if (k > s && is_ident(f, k - 1) && f.tok(k - 1) != "operator") ++adepth;
      } else if (kt == ">" && adepth > 0 && pdepth == 0 && bdepth == 0) {
        --adepth;
      } else if (kt == "=" && pdepth == 0 && adepth == 0 && bdepth == 0) {
        static const std::set<SV> kOpChars = {"=", "<", ">", "!", "+", "-",
                                              "*", "/", "%", "&", "|", "^"};
        const bool in_op_run =
            (k > s && ((f.tokens[k - 1].kind == TokenKind::kPunct &&
                        kOpChars.count(f.tok(k - 1)) > 0) ||
                       is_ident(f, k - 1, "operator"))) ||
            (k + 1 < e && f.tokens[k + 1].kind == TokenKind::kPunct && f.tok(k + 1) == "=");
        if (!in_op_run && h.eq == HeadScan::kNone) h.eq = k;
        if (!in_op_run && h.params_end != HeadScan::kNone && k > h.params_end &&
            k + 1 < e &&
            (is_ident(f, k + 1, "default") || is_ident(f, k + 1, "delete") ||
             (f.tokens[k + 1].kind == TokenKind::kNumber && f.tok(k + 1) == "0"))) {
          h.is_defaulted = true;
        }
      } else if (kt == ":" && pdepth == 0 && adepth == 0 && bdepth == 0 &&
                 h.params_end != HeadScan::kNone && k > h.params_end &&
                 h.sig_end == e) {
        h.sig_end = k;  // ctor member-init list
      }
    } else if (tk.kind == TokenKind::kIdentifier && pdepth == 0 && adepth == 0 &&
               bdepth == 0) {
      if (kt == "namespace") {
        h.is_namespace = true;
      } else if (kt == "class" || kt == "struct" || kt == "union") {
        if (h.class_key == HeadScan::kNone && h.first_open == HeadScan::kNone) {
          h.class_key = k;
        }
      } else if (kt == "enum") {
        h.is_enum = true;
      } else if (kt == "template" || kt == "inline" || kt == "constexpr" ||
                 kt == "consteval") {
        h.inline_like = true;
      } else if (kt == "static") {
        h.is_static = true;
      } else if (kt == "friend") {
        h.is_friend = true;
      } else if (kt == "virtual") {
        h.is_virtual = true;
      } else if (kt == "override" || kt == "final") {
        if (h.params_end != HeadScan::kNone && k > h.params_end) h.is_virtual = true;
      } else if (kt == "const") {
        if (h.params_end != HeadScan::kNone && k > h.params_end) h.is_const_tail = true;
      } else if (kt == "using" || kt == "typedef" || kt == "static_assert" ||
                 kt == "concept" || kt == "requires") {
        h.is_using = true;
      } else if (kt == "extern") {
        saw_extern = true;
      }
    } else if (tk.kind == TokenKind::kString && saw_extern && pdepth == 0) {
      h.is_extern_block = true;
    }
  }
  return h;
}

/// Walk the function name back from its '(' — `A::B::name`, `~name`,
/// `operator<=` — returning the last component and the `::` qualifiers in
/// order. Empty name means "no declarator here".
struct NameWalk {
  std::string name;
  std::vector<std::string> qualifiers;
  std::size_t name_tok = 0;
  bool is_operator = false;
};

NameWalk walk_name(const SourceFile& f, std::size_t s, std::size_t open) {
  NameWalk w;
  static const std::set<SV> kOps = {"<", ">", "=", "+", "-", "*", "/", "[",
                                    "]", "!", "&", "|", "^", "%", "~"};
  std::size_t k = open;
  std::string sym;
  while (k > s && f.tokens[k - 1].kind == TokenKind::kPunct && kOps.count(f.tok(k - 1)) > 0) {
    sym = std::string(f.tok(k - 1)) + sym;
    --k;
  }
  if (!sym.empty() && k > s && is_ident(f, k - 1, "operator")) {
    w.name = "operator" + sym;
    w.name_tok = k - 1;
    w.is_operator = true;
    k = k - 1;
  } else {
    k = open;
    bool expect_ident = true;
    bool took_name = false;
    while (k > s) {
      const SV kt = f.tok(k - 1);
      if (expect_ident) {
        if (took_name && f.tokens[k - 1].kind == TokenKind::kPunct &&
            (kt == ">" || kt == ">>")) {
          // Templated qualifier (`Ring<double, 8>::Slot::mark`): skip the
          // argument list and take the identifier before it, so the
          // qualifier chain matches the in-class declaration's.
          int depth = kt == ">>" ? 2 : 1;
          std::size_t j = k - 1;
          while (j > s && depth > 0) {
            --j;
            if (f.tokens[j].kind != TokenKind::kPunct) continue;
            const SV jt = f.tok(j);
            if (jt == ">") ++depth;
            else if (jt == ">>") depth += 2;
            else if (jt == "<") --depth;
            else if (jt == "<<") depth -= 2;
          }
          if (depth != 0 || j <= s || f.tokens[j - 1].kind != TokenKind::kIdentifier) break;
          w.qualifiers.insert(w.qualifiers.begin(), std::string(f.tok(j - 1)));
          k = j - 1;
          expect_ident = false;
          continue;
        }
        if (f.tokens[k - 1].kind != TokenKind::kIdentifier || kt == "operator") break;
        if (!took_name) {
          w.name = std::string(kt);
          w.name_tok = k - 1;
          took_name = true;
        } else {
          w.qualifiers.insert(w.qualifiers.begin(), std::string(kt));
        }
        --k;
        expect_ident = false;
      } else if (kt == "~" && took_name && w.qualifiers.empty() &&
                 w.name.front() != '~') {
        w.name = "~" + w.name;
        --k;
      } else if (kt == "::") {
        --k;
        expect_ident = true;
      } else {
        break;
      }
    }
    // Conversion operator (`operator bool()`): the walked "name" is the
    // target type with `operator` before it.
    if (took_name && w.name_tok > s && is_ident(f, w.name_tok - 1, "operator")) {
      w.name = "operator " + w.name;
      w.name_tok = w.name_tok - 1;
      w.is_operator = true;
      w.qualifiers.clear();
    }
  }
  if (!w.name.empty() && non_names().count(SV(w.name)) > 0) w.name.clear();
  return w;
}

class OutlineParser {
 public:
  explicit OutlineParser(const SourceFile& f) : f_(f) {}

  Outline run() {
    const std::size_t n = f_.tokens.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (f_.tokens[i].kind != TokenKind::kPunct) continue;
      const SV t = f_.tok(i);
      if (t == "{") {
        classify_open(i);
        head_ = i + 1;
      } else if (t == "}") {
        if (!frames_.empty()) {
          if (frames_.back().kind == Frame::Kind::kFunction && frames_.back().fn >= 0) {
            out_.functions[static_cast<std::size_t>(frames_.back().fn)].body_end = i;
          }
          frames_.pop_back();
        }
        head_ = i + 1;
      } else if (t == ";") {
        if (at_outline_scope()) classify_semi(i);
        head_ = i + 1;
      } else if (t == ":" && head_ == i - 1 && in_class() && at_outline_scope()) {
        const SV a = f_.tok(i - 1);
        if (a == "public") {
          frames_.back().access = Access::kPublic;
          head_ = i + 1;
        } else if (a == "protected") {
          frames_.back().access = Access::kProtected;
          head_ = i + 1;
        } else if (a == "private") {
          frames_.back().access = Access::kPrivate;
          head_ = i + 1;
        }
      }
    }
    return std::move(out_);
  }

 private:
  struct Frame {
    enum class Kind : std::uint8_t { kNamespace, kClass, kFunction, kOther };
    Kind kind;
    std::string name;                 // namespace path text or class name
    Access access = Access::kNone;    // current section, class frames only
    int fn = -1;                      // functions: index into out_.functions
  };

  [[nodiscard]] bool at_outline_scope() const {
    return std::all_of(frames_.begin(), frames_.end(), [](const Frame& fr) {
      return fr.kind == Frame::Kind::kNamespace || fr.kind == Frame::Kind::kClass;
    });
  }
  [[nodiscard]] bool in_class() const {
    return !frames_.empty() && frames_.back().kind == Frame::Kind::kClass;
  }

  [[nodiscard]] std::vector<std::string> class_path() const {
    std::vector<std::string> path;
    for (const Frame& fr : frames_) {
      if (fr.kind == Frame::Kind::kClass) path.push_back(fr.name);
    }
    return path;
  }

  [[nodiscard]] std::vector<std::string> ns_path() const {
    std::vector<std::string> path;
    for (const Frame& fr : frames_) {
      if (fr.kind != Frame::Kind::kNamespace) continue;
      SV rest = fr.name;
      while (!rest.empty()) {
        const std::size_t sep = rest.find("::");
        path.emplace_back(rest.substr(0, sep));
        if (sep == SV::npos) break;
        rest.remove_prefix(sep + 2);
      }
    }
    return path;
  }

  /// Annotations recorded on any line the signature spans (plus the line
  /// above the head, which is where a standalone comment lands anyway).
  [[nodiscard]] std::vector<std::string> annotations_spanning(std::size_t s,
                                                             std::size_t e) const {
    std::vector<std::string> result;
    const int from = f_.tokens[s].line;
    const int to = f_.tokens[e < f_.tokens.size() ? e : f_.tokens.size() - 1].line;
    for (int line = from; line <= to; ++line) {
      const std::vector<std::string>& on_line = f_.annotations_on(line);
      result.insert(result.end(), on_line.begin(), on_line.end());
    }
    return result;
  }

  void classify_open(std::size_t i) {
    if (!at_outline_scope() || head_ >= i) {
      push_plain(i);
      return;
    }
    const std::size_t s = head_;
    const HeadScan h = scan_head(f_, s, i);

    if (h.is_namespace || h.is_extern_block) {
      Frame fr{Frame::Kind::kNamespace, {}, Access::kNone, -1};
      if (h.is_namespace) {
        // Name: everything after the `namespace` keyword, `::`s included.
        std::string name;
        bool after_kw = false;
        for (std::size_t k = s; k < i; ++k) {
          if (is_ident(f_, k, "namespace")) {
            after_kw = true;
            continue;
          }
          if (after_kw && (is_ident(f_, k) || is_punct(f_, k, "::"))) name += f_.tok(k);
        }
        fr.name = std::move(name);
      }
      frames_.push_back(std::move(fr));
      return;
    }
    if (h.is_enum || h.is_using) {
      frames_.push_back(Frame{Frame::Kind::kOther, {}, Access::kNone, -1});
      return;
    }
    if (h.class_key != HeadScan::kNone) {
      const SV key = f_.tok(h.class_key);
      Frame fr{Frame::Kind::kClass, {}, key == "class" ? Access::kPrivate : Access::kPublic,
               -1};
      if (is_ident(f_, h.class_key + 1)) fr.name = std::string(f_.tok(h.class_key + 1));
      frames_.push_back(std::move(fr));
      return;
    }
    if (h.first_open != HeadScan::kNone && h.params_end != HeadScan::kNone &&
        (h.eq == HeadScan::kNone || h.eq > h.params_end)) {
      const std::size_t fn = record_function(s, i, h, /*body_begin=*/i);
      if (fn != HeadScan::kNone) {
        frames_.push_back(
            Frame{Frame::Kind::kFunction, {}, Access::kNone, static_cast<int>(fn)});
        return;
      }
    }
    // Brace initializer of a member (`int n{0};`): name directly before.
    if (in_class() && h.first_open == HeadScan::kNone && h.eq == HeadScan::kNone &&
        i > s && is_ident(f_, i - 1) && f_.tok(i - 1) != "final") {
      record_member(s, i, i - 1);
    }
    push_plain(i);
  }

  void push_plain(std::size_t /*i*/) {
    const bool in_fn =
        !frames_.empty() && (frames_.back().kind == Frame::Kind::kFunction ||
                             frames_.back().kind == Frame::Kind::kOther);
    frames_.push_back(Frame{in_fn ? Frame::Kind::kOther : Frame::Kind::kOther,
                            {},
                            Access::kNone,
                            -1});
  }

  void classify_semi(std::size_t i) {
    if (head_ >= i) return;
    const std::size_t s = head_;
    const HeadScan h = scan_head(f_, s, i);
    if (h.is_namespace || h.is_using || h.is_enum || h.is_extern_block) return;
    if (h.class_key != HeadScan::kNone) return;  // forward declaration

    if (h.first_open != HeadScan::kNone && h.params_end != HeadScan::kNone &&
        (h.eq == HeadScan::kNone || h.eq > h.params_end)) {
      record_function(s, i, h, /*body_begin=*/0);
      return;
    }
    if (in_class()) {
      // Member variable: name directly before '=', an array bracket, or
      // the ';' itself.
      std::size_t name_tok = HeadScan::kNone;
      if (h.eq != HeadScan::kNone) {
        if (h.eq > s && is_ident(f_, h.eq - 1)) name_tok = h.eq - 1;
      } else {
        std::size_t k = i;
        while (k > s && is_punct(f_, k - 1, "]")) {  // strip [N] groups
          std::size_t depth = 1;
          --k;
          while (k > s && depth > 0) {
            if (is_punct(f_, k - 1, "]")) ++depth;
            if (is_punct(f_, k - 1, "[")) --depth;
            --k;
          }
        }
        if (k > s && is_ident(f_, k - 1)) name_tok = k - 1;
      }
      if (name_tok != HeadScan::kNone && name_tok > s &&
          non_names().count(f_.tok(name_tok)) == 0) {
        record_member(s, i, name_tok);
      }
    }
  }

  void record_member(std::size_t s, std::size_t e, std::size_t name_tok) {
    MemberVar m;
    m.name = std::string(f_.tok(name_tok));
    m.classes = class_path();
    m.line = f_.tokens[name_tok].line;
    m.name_tok = name_tok;
    m.annotations = annotations_spanning(s, e);
    out_.members.push_back(std::move(m));
  }

  /// Returns the new function's index, or HeadScan::kNone if the head has
  /// no usable declarator.
  std::size_t record_function(std::size_t s, std::size_t e, const HeadScan& h,
                              std::size_t body_begin) {
    std::size_t open = h.first_open;
    std::size_t close = h.params_end;
    NameWalk w;
    // operator(): the first paren group is the name, the second the params.
    if (open > s && is_ident(f_, open - 1, "operator")) {
      w.name = "operator()";
      w.name_tok = open - 1;
      w.is_operator = true;
      if (close + 1 < e && is_punct(f_, close + 1, "(")) {
        open = close + 1;
        std::size_t depth = 1;
        close = open + 1;
        while (close < e && depth > 0) {
          if (is_punct(f_, close, "(")) ++depth;
          if (is_punct(f_, close, ")")) --depth;
          if (depth == 0) break;
          ++close;
        }
        if (close >= e) return HeadScan::kNone;
      } else {
        return HeadScan::kNone;
      }
    } else {
      w = walk_name(f_, s, open);
      if (w.name.empty()) return HeadScan::kNone;
    }

    FunctionDecl fn;
    fn.name = std::move(w.name);
    fn.classes = class_path();
    for (std::string& q : w.qualifiers) fn.classes.push_back(std::move(q));
    fn.namespaces = ns_path();
    fn.access = in_class() ? frames_.back().access : Access::kNone;
    fn.is_const = h.is_const_tail;
    fn.is_static = h.is_static;
    fn.is_friend = h.is_friend;
    fn.is_virtual = h.is_virtual;
    fn.is_definition = body_begin != 0;
    fn.is_defaulted = h.is_defaulted;
    fn.inline_like = h.inline_like || (fn.is_definition && in_class());
    fn.is_operator = w.is_operator;
    fn.line = f_.tokens[s].line;
    fn.name_tok = w.name_tok;
    fn.params_begin = open;
    fn.params_end = close;
    fn.body_begin = body_begin;

    const std::string& inner =
        !class_path().empty() || !fn.classes.empty()
            ? (fn.classes.empty() ? std::string() : fn.classes.back())
            : std::string();
    fn.is_ctor_dtor = !fn.name.empty() &&
                      (fn.name.front() == '~' || (!inner.empty() && fn.name == inner));

    // Parameters: arity at paren depth 1, angles skipped; `(void)` and
    // `()` are both "no parameters".
    int pdepth = 1, adepth = 0;
    int commas = 0;
    std::size_t param_tokens = 0;
    for (std::size_t k = open + 1; k < close; ++k) {
      const SV kt = f_.tok(k);
      if (f_.tokens[k].kind == TokenKind::kPunct) {
        if (kt == "(") ++pdepth;
        else if (kt == ")") --pdepth;
        else if (kt == "<" && k > open + 1 && is_ident(f_, k - 1)) ++adepth;
        else if (kt == ">" && adepth > 0) --adepth;
        else if (kt == "," && pdepth == 1 && adepth == 0) ++commas;
      } else if (f_.tokens[k].kind == TokenKind::kIdentifier) {
        if (kt == "unique_lock" || kt == "scoped_lock" || kt == "lock_guard") {
          fn.has_lock_param = true;
        }
      }
      ++param_tokens;
    }
    const bool void_only = param_tokens == 1 && is_ident(f_, open + 1, "void");
    fn.has_params = param_tokens > 0 && !void_only;
    fn.arity = fn.has_params ? commas + 1 : 0;
    fn.annotations = annotations_spanning(s, open);

    out_.functions.push_back(std::move(fn));
    return out_.functions.size() - 1;
  }

  const SourceFile& f_;
  Outline out_;
  std::vector<Frame> frames_;
  std::size_t head_ = 0;
};

}  // namespace

std::string FunctionDecl::qualified() const {
  std::string q;
  for (const std::string& c : classes) {
    q += c;
    q += "::";
  }
  return q + name;
}

std::string FunctionDecl::cls() const { return classes.empty() ? std::string() : classes.back(); }

bool FunctionDecl::has_annotation(std::string_view text) const {
  return std::find(annotations.begin(), annotations.end(), text) != annotations.end();
}

std::string MemberVar::cls() const { return classes.empty() ? std::string() : classes.back(); }

std::string MemberVar::guard() const {
  for (const std::string& a : annotations) {
    const std::string_view sv(a);
    if (sv.rfind("guarded_by(", 0) != 0) continue;
    const std::size_t close = sv.find(')', 11);
    if (close == std::string_view::npos) continue;
    std::string_view g = sv.substr(11, close - 11);
    while (!g.empty() && (g.front() == ' ' || g.front() == '\t')) g.remove_prefix(1);
    while (!g.empty() && (g.back() == ' ' || g.back() == '\t')) g.remove_suffix(1);
    return std::string(g);
  }
  return std::string();
}

Outline build_outline(const SourceFile& f) { return OutlineParser(f).run(); }

}  // namespace rush::analysis
