#include "shapcq/data/db_io.h"

#include <fstream>
#include <sstream>

#include "shapcq/query/parser.h"

namespace shapcq {

std::string SerializeDatabase(const Database& db) {
  std::string out;
  for (FactId id = 0; id < db.num_facts(); ++id) {
    if (!db.live(id)) continue;  // tombstoned facts are not content
    const Fact& fact = db.fact(id);
    out += fact.endogenous ? '+' : '-';
    out += fact.ToString();
    out += '\n';
  }
  return out;
}

StatusOr<ParsedFact> ParseFactLine(std::string_view line) {
  // Trim whitespace.
  while (!line.empty() && (line.front() == ' ' || line.front() == '\t' ||
                           line.front() == '\r')) {
    line.remove_prefix(1);
  }
  while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  if (line.empty()) {
    return InvalidArgumentError("empty fact line");
  }
  ParsedFact fact;
  // Optional endogeneity marker; a bare fact is endogenous. (delete_fact
  // names facts by content, so the daemon and the journal carry them
  // markerless.)
  if (line[0] == '+' || line[0] == '-') {
    fact.endogenous = line[0] == '+';
    line.remove_prefix(1);
  }
  // Reuse the CQ parser: a fact is a ground atom.
  std::string as_query = "Q() <- " + std::string(line);
  StatusOr<ConjunctiveQuery> parsed = ParseQuery(as_query);
  if (!parsed.ok()) return parsed.status();
  const Atom& atom = parsed->atoms()[0];
  if (parsed->atoms().size() != 1 || !atom.is_ground()) {
    return InvalidArgumentError("expected one ground fact");
  }
  fact.relation = atom.relation;
  fact.args.reserve(atom.terms.size());
  for (const Term& term : atom.terms) fact.args.push_back(term.constant());
  return fact;
}

StatusOr<Database> ParseDatabase(std::string_view text) {
  Database db;
  size_t start = 0;
  int line_number = 0;
  while (start <= text.size()) {
    size_t newline = text.find('\n', start);
    size_t end = newline == std::string_view::npos ? text.size() : newline;
    std::string_view line = text.substr(start, end - start);
    ++line_number;
    // Trim whitespace.
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t' ||
                             line.front() == '\r')) {
      line.remove_prefix(1);
    }
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (!line.empty() && line[0] != '#') {
      StatusOr<ParsedFact> parsed = ParseFactLine(line);
      if (!parsed.ok()) {
        return InvalidArgumentError("line " + std::to_string(line_number) +
                                    ": " + parsed.status().message());
      }
      // A duplicate fact or an arity conflict is bad input, not a crash.
      StatusOr<FactId> added = db.InsertFact(
          parsed->relation, std::move(parsed->args), parsed->endogenous);
      if (!added.ok()) {
        return InvalidArgumentError("line " + std::to_string(line_number) +
                                    ": " + added.status().message());
      }
    }
    if (newline == std::string_view::npos) break;
    start = newline + 1;
  }
  return db;
}

Status SaveDatabaseToFile(const Database& db, const std::string& path) {
  std::ofstream file(path);
  if (!file) return NotFoundError("cannot open file for writing: " + path);
  file << SerializeDatabase(db);
  return file.good() ? Status::Ok()
                     : InternalError("write failed: " + path);
}

StatusOr<Database> LoadDatabaseFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFoundError("cannot open file: " + path);
  std::ostringstream contents;
  contents << file.rdbuf();
  return ParseDatabase(contents.str());
}

}  // namespace shapcq
