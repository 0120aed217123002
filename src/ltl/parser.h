// Text parser for LTL formulas.
//
// Grammar (lowest to highest precedence; -> and <-> are right-associative,
// the binary temporal operators U W R B are right-associative as usual in
// LTL):
//
//   iff     := implies ('<->' implies)*
//   implies := or ('->' implies)?
//   or      := and (('|' | '||') and)*
//   and     := temporal (('&' | '&&') temporal)*
//   temporal:= unary (('U' | 'W' | 'R' | 'B') temporal)?
//   unary   := ('!' | 'X' | 'F' | 'G') unary | atom
//   atom    := 'true' | 'false' | identifier | '(' iff ')'
//
// Identifiers are [A-Za-z_][A-Za-z0-9_]* excluding the reserved operator
// letters (U W R B X F G) and keywords (true false). By default unknown
// identifiers are interned into the vocabulary; a strict mode rejects them
// (used for queries, which must cite only registered events).

#pragma once

#include <string_view>

#include "base/vocabulary.h"
#include "ltl/formula.h"
#include "util/result.h"

namespace ctdb::ltl {

/// Parsing options.
struct ParseOptions {
  /// When true, identifiers not present in the vocabulary are an error;
  /// when false they are interned on first sight.
  bool require_known_events = false;
  /// Recursion budget: parsing fails with InvalidArgument once the descent
  /// nests deeper than this, instead of overflowing the stack on
  /// adversarial inputs like "((((..." or "p U p U p ...". One level of
  /// formula nesting consumes at most three units, so the default still
  /// admits ASTs several hundred levels deep while bounding the depth every
  /// later recursive pass (printing, rewriting, the tableau) inherits.
  size_t max_depth = 1024;
};

/// \brief Parses `text` into a formula owned by `factory`.
///
/// Event identifiers are resolved against (and, unless
/// `options.require_known_events`, added to) `vocab`. Errors carry the
/// offending position.
Result<const Formula*> Parse(std::string_view text, FormulaFactory* factory,
                             Vocabulary* vocab,
                             const ParseOptions& options = {});

/// \brief Read-only parse against a shared vocabulary.
///
/// Like Parse above but never interns: `require_known_events` is implied
/// (unknown identifiers are a NotFound error), so `vocab` may be shared with
/// concurrent readers — this is the overload the snapshot-isolated query
/// path uses with a call-local factory.
Result<const Formula*> Parse(std::string_view text, FormulaFactory* factory,
                             const Vocabulary& vocab,
                             const ParseOptions& options = {});

}  // namespace ctdb::ltl
