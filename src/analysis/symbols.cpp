#include "analysis/symbols.hpp"

#include "common/error.hpp"

namespace rush::analysis {

namespace {

std::string def_key(const std::string& cls, const std::string& name) {
  return cls + "::" + name;
}

}  // namespace

void SymbolIndex::add_file(const SourceFile& file, bool analyzed) {
  RUSH_EXPECTS(!finalized_);
  FileOutline fo;
  fo.file = &file;
  fo.outline = build_outline(file);
  fo.analyzed = analyzed;
  files_.push_back(std::move(fo));
}

void SymbolIndex::finalize() {
  finalized_ = true;
  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    const FileOutline& fo = files_[fi];
    // Token positions that are declaration names, not uses.
    std::set<std::size_t> decl_toks;
    for (const FunctionDecl& fn : fo.outline.functions) decl_toks.insert(fn.name_tok);
    for (const MemberVar& m : fo.outline.members) decl_toks.insert(m.name_tok);

    for (std::size_t fni = 0; fni < fo.outline.functions.size(); ++fni) {
      const FunctionDecl& fn = fo.outline.functions[fni];
      if (!fn.is_definition) continue;
      defs_[def_key(fn.cls(), fn.name)].emplace_back(fi, fni);
    }

    const std::size_t n = fo.file->tokens.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (fo.file->tokens[i].kind != TokenKind::kIdentifier) continue;
      if (decl_toks.count(i) > 0) continue;
      referenced_.insert(std::string(fo.file->tok(i)));
    }

    // A macro body names what its expansions call (RUSH_EXPECTS calls
    // detail::precondition_failure); every identifier after the macro's
    // own name counts.
    for (const Directive& d : fo.file->directives) {
      if (d.keyword != "define") continue;
      const SourceFile body = lex_string(fo.file->rel, d.rest);
      for (std::size_t i = 1; i < body.tokens.size(); ++i) {
        if (body.tokens[i].kind == TokenKind::kIdentifier)
          referenced_.insert(std::string(body.tok(i)));
      }
    }
  }
}

std::vector<SymbolIndex::FnRef> SymbolIndex::find_definitions(const std::string& cls,
                                                              const std::string& name,
                                                              int arity) const {
  std::vector<FnRef> result;
  const auto it = defs_.find(def_key(cls, name));
  if (it == defs_.end()) return result;
  std::vector<FnRef> any;
  for (const auto& [fi, fni] : it->second) {
    const FileOutline& fo = files_[fi];
    const FunctionDecl& fn = fo.outline.functions[fni];
    any.push_back(FnRef{&fo, &fn});
    if (arity < 0 || fn.arity == arity) result.push_back(FnRef{&fo, &fn});
  }
  // Arity is a tiebreak for overload sets; when nothing matches it (e.g.
  // a variadic mismatch between decl and def spellings), fall back to the
  // whole set rather than claiming "no definition".
  return result.empty() ? any : result;
}

bool SymbolIndex::referenced(const std::string& name) const {
  return referenced_.count(name) > 0;
}

}  // namespace rush::analysis
