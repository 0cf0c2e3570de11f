#include "shapcq/query/evaluator.h"

#include <algorithm>
#include <map>
#include <set>

#include "shapcq/util/check.h"

namespace shapcq {

namespace {

const std::vector<FactId> kNoCandidates;

// One atom compiled against a database's interned ids: each position is
// either a variable slot or a pre-resolved constant ValueId.
struct CompiledAtom {
  RelationId relation = kNoRelationId;
  // A constant that was never interned (or an unknown relation) can match
  // no fact at all.
  bool impossible = false;
  std::vector<int> var_slot;      // per position; -1 when constant
  std::vector<ValueId> const_id;  // per position; set when var_slot < 0
};

// Backtracking join over interned ids. Candidates for an atom are the
// galloping intersection of the dense posting lists of its determined
// (constant or already-bound) positions; the per-candidate match step only
// binds the atom's still-unbound variable slots. Atom order is greedy:
// fewest candidates (cheapest posting list) times unbound variables first.
class IdJoin {
 public:
  IdJoin(const ConjunctiveQuery& q, const Database& db)
      : q_(q), db_(db), has_tombstones_(db.has_tombstones()) {
    const std::vector<std::string>& vars = q.variables();
    for (size_t i = 0; i < vars.size(); ++i) {
      slot_of_.emplace(vars[i], static_cast<int>(i));
    }
    atoms_.reserve(q.atoms().size());
    for (const Atom& atom : q.atoms()) {
      CompiledAtom compiled;
      compiled.relation = db.relation_id(atom.relation);
      if (compiled.relation == kNoRelationId) {
        compiled.impossible = true;
      } else {
        // The id join validates once against the relation's stored arity
        // (the naive reference join of the tests aborts fact by fact).
        SHAPCQ_CHECK(db.columns().arity(compiled.relation) == atom.arity() &&
                     "query atom arity conflicts with relation arity");
      }
      compiled.var_slot.reserve(atom.terms.size());
      compiled.const_id.reserve(atom.terms.size());
      for (const Term& term : atom.terms) {
        if (term.is_variable()) {
          compiled.var_slot.push_back(slot_of_.at(term.variable()));
          compiled.const_id.push_back(kNoValueId);
        } else {
          ValueId id = db.pool().Find(term.constant());
          compiled.var_slot.push_back(-1);
          compiled.const_id.push_back(id);
          if (id == kNoValueId) compiled.impossible = true;
        }
      }
      atoms_.push_back(std::move(compiled));
    }
  }

  // Pins `atom_index` to the single candidate `fact`: Run() then
  // enumerates exactly the homomorphisms that map that atom to that fact
  // (the delta-seeded join behind AnswersTouching). The fact must belong
  // to the atom's relation.
  void Pin(size_t atom_index, FactId fact) {
    SHAPCQ_CHECK(atom_index < atoms_.size());
    SHAPCQ_CHECK(db_.fact_relation(fact) == atoms_[atom_index].relation);
    pinned_atom_ = static_cast<int>(atom_index);
    pinned_fact_ = fact;
  }

  IdHomomorphisms Run() {
    IdHomomorphisms out;
    out.slot_names = q_.variables();
    out.head_slots.reserve(q_.head().size());
    for (const std::string& head_var : q_.head()) {
      out.head_slots.push_back(slot_of_.at(head_var));
    }
    binding_.assign(out.slot_names.size(), kNoValueId);
    used_.assign(atoms_.size(), -1);
    done_.assign(atoms_.size(), false);
    scratch_.resize(atoms_.size());
    Recurse(0, &out);
    return out;
  }

 private:
  // The determined value at an atom position under the current binding;
  // kNoValueId when the position is an unbound variable.
  ValueId DeterminedAt(const CompiledAtom& atom, size_t position) const {
    int slot = atom.var_slot[position];
    return slot < 0 ? atom.const_id[position]
                    : binding_[static_cast<size_t>(slot)];
  }

  // Cheap selectivity estimate (no intersection): smallest determined
  // posting list times the number of unbound variable occurrences.
  long Estimate(size_t atom_index) const {
    const CompiledAtom& atom = atoms_[atom_index];
    if (atom.impossible) return 0;
    // A pinned atom has exactly one candidate: take it first so the join
    // is seeded from the delta fact.
    if (static_cast<int>(atom_index) == pinned_atom_) return 1;
    long best = static_cast<long>(db_.FactsOf(atom.relation).size());
    long unbound = 0;
    for (size_t position = 0; position < atom.var_slot.size(); ++position) {
      ValueId value = DeterminedAt(atom, position);
      if (value == kNoValueId) {
        ++unbound;
        continue;
      }
      long probed = static_cast<long>(
          db_.FactsWith(atom.relation, static_cast<int>(position), value)
              .size());
      best = std::min(best, probed);
    }
    return best * (unbound + 1);
  }

  // Candidates for an atom: intersection of all determined posting lists
  // (they verify the constants and bound variables in one pass), or the
  // full relation when nothing is determined. The returned reference stays
  // valid through deeper recursion: posting lists are immutable and
  // scratch_[atom_index] is not reused while the atom is active.
  const std::vector<FactId>& Candidates(size_t atom_index) {
    const CompiledAtom& atom = atoms_[atom_index];
    if (atom.impossible) return kNoCandidates;
    if (static_cast<int>(atom_index) == pinned_atom_) {
      // The single pinned candidate, after verifying every currently
      // determined position against the fact (the posting-list
      // intersection would have done this on the unpinned path).
      for (size_t position = 0; position < atom.var_slot.size();
           ++position) {
        ValueId value = DeterminedAt(atom, position);
        if (value == kNoValueId) continue;
        if (db_.ArgId(pinned_fact_, static_cast<int>(position)) != value) {
          return kNoCandidates;
        }
      }
      scratch_[atom_index].assign(1, pinned_fact_);
      return scratch_[atom_index];
    }
    lists_.clear();
    for (size_t position = 0; position < atom.var_slot.size(); ++position) {
      ValueId value = DeterminedAt(atom, position);
      if (value == kNoValueId) continue;
      lists_.push_back(
          &db_.FactsWith(atom.relation, static_cast<int>(position), value));
      if (lists_.back()->empty()) return kNoCandidates;
    }
    if (lists_.empty()) return db_.FactsOf(atom.relation);
    if (lists_.size() == 1) return *lists_[0];
    scratch_[atom_index] = has_tombstones_
                               ? IntersectPostingsLive(lists_, db_.dead())
                               : IntersectPostings(lists_);
    return scratch_[atom_index];
  }

  // Binds the atom's unbound slots against `fact`; returns false (leaving
  // newly introduced slots in `introduced` for the caller to roll back) on
  // a repeated-variable mismatch. Determined positions were already
  // verified by the posting-list intersection.
  bool Match(size_t atom_index, FactId fact, std::vector<int>* introduced) {
    const CompiledAtom& atom = atoms_[atom_index];
    for (size_t position = 0; position < atom.var_slot.size(); ++position) {
      int slot = atom.var_slot[position];
      if (slot < 0) continue;
      ValueId value = db_.ArgId(fact, static_cast<int>(position));
      ValueId& bound = binding_[static_cast<size_t>(slot)];
      if (bound == kNoValueId) {
        bound = value;
        introduced->push_back(slot);
      } else if (bound != value) {
        return false;
      }
    }
    return true;
  }

  void Recurse(size_t depth, IdHomomorphisms* out) {
    if (depth == atoms_.size()) {
      out->bindings.push_back(binding_);
      out->used_facts.push_back(used_);
      return;
    }
    int atom_index = -1;
    long best_score = -1;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (done_[i]) continue;
      long score = Estimate(i);
      if (atom_index == -1 || score < best_score) {
        atom_index = static_cast<int>(i);
        best_score = score;
      }
    }
    SHAPCQ_CHECK(atom_index >= 0);
    const size_t chosen = static_cast<size_t>(atom_index);
    const std::vector<FactId>& candidates = Candidates(chosen);
    done_[chosen] = true;
    std::vector<int> introduced;
    for (FactId fact : candidates) {
      // Posting lists keep tombstoned ids until compaction; skip them.
      if (has_tombstones_ && !db_.live(fact)) continue;
      introduced.clear();
      if (Match(chosen, fact, &introduced)) {
        used_[chosen] = fact;
        Recurse(depth + 1, out);
        used_[chosen] = -1;
      }
      for (int slot : introduced) {
        binding_[static_cast<size_t>(slot)] = kNoValueId;
      }
    }
    done_[chosen] = false;
  }

  const ConjunctiveQuery& q_;
  const Database& db_;
  const bool has_tombstones_;
  int pinned_atom_ = -1;
  FactId pinned_fact_ = -1;
  std::unordered_map<std::string, int> slot_of_;
  std::vector<CompiledAtom> atoms_;
  std::vector<ValueId> binding_;               // slot -> value id
  std::vector<FactId> used_;                   // atom -> fact
  std::vector<bool> done_;
  std::vector<std::vector<FactId>> scratch_;   // per-atom intersections
  std::vector<const std::vector<FactId>*> lists_;
};

// The head-slot values of homomorphism h: its answer, over interned ids.
std::vector<ValueId> AnswerIds(const IdHomomorphisms& ids, size_t h) {
  std::vector<ValueId> answer;
  answer.reserve(ids.head_slots.size());
  for (int slot : ids.head_slots) {
    answer.push_back(ids.bindings[h][static_cast<size_t>(slot)]);
  }
  return answer;
}

// The distinct answers among `answers` (id equality <=> Value equality),
// materialized and sorted by Tuple: id order is not Value order, and the
// tuple order is the one every caller relies on.
std::vector<Tuple> SortedDistinctAnswers(
    std::vector<std::vector<ValueId>> answers, const Database& db) {
  std::sort(answers.begin(), answers.end());
  answers.erase(std::unique(answers.begin(), answers.end()), answers.end());
  std::vector<Tuple> out;
  out.reserve(answers.size());
  for (const std::vector<ValueId>& answer : answers) {
    Tuple tuple;
    tuple.reserve(answer.size());
    for (ValueId id : answer) tuple.push_back(db.pool().value(id));
    out.push_back(std::move(tuple));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

IdHomomorphisms EnumerateHomomorphismIds(const ConjunctiveQuery& q,
                                         const Database& db) {
  IdJoin join(q, db);
  return join.Run();
}

std::vector<AnswerHomomorphisms> GroupHomomorphismsByAnswer(
    const ConjunctiveQuery& q, const Database& db) {
  // Group over interned ids; answers materialize to Values once per
  // distinct answer and then sort by Tuple.
  IdHomomorphisms ids = EnumerateHomomorphismIds(q, db);
  std::map<std::vector<ValueId>, std::vector<std::vector<FactId>>> by_answer;
  for (size_t h = 0; h < ids.bindings.size(); ++h) {
    by_answer[AnswerIds(ids, h)].push_back(std::move(ids.used_facts[h]));
  }
  std::vector<AnswerHomomorphisms> out;
  out.reserve(by_answer.size());
  for (auto& [answer_ids, used_facts] : by_answer) {
    AnswerHomomorphisms group;
    group.answer.reserve(answer_ids.size());
    for (ValueId id : answer_ids) group.answer.push_back(db.pool().value(id));
    group.used_facts = std::move(used_facts);
    out.push_back(std::move(group));
  }
  std::sort(out.begin(), out.end(),
            [](const AnswerHomomorphisms& x, const AnswerHomomorphisms& y) {
              return x.answer < y.answer;
            });
  return out;
}

std::vector<Homomorphism> EnumerateHomomorphisms(const ConjunctiveQuery& q,
                                                 const Database& db) {
  IdHomomorphisms ids = EnumerateHomomorphismIds(q, db);
  std::vector<Homomorphism> out;
  out.reserve(ids.bindings.size());
  for (size_t h = 0; h < ids.bindings.size(); ++h) {
    Homomorphism hom;
    const std::vector<ValueId>& slots = ids.bindings[h];
    for (size_t s = 0; s < ids.slot_names.size(); ++s) {
      SHAPCQ_CHECK(slots[s] != kNoValueId);
      hom.binding.emplace(ids.slot_names[s], db.pool().value(slots[s]));
    }
    hom.answer.reserve(ids.head_slots.size());
    for (int slot : ids.head_slots) {
      hom.answer.push_back(db.pool().value(slots[static_cast<size_t>(slot)]));
    }
    hom.used_facts = std::move(ids.used_facts[h]);
    out.push_back(std::move(hom));
  }
  return out;
}

std::vector<Tuple> Evaluate(const ConjunctiveQuery& q, const Database& db) {
  IdHomomorphisms ids = EnumerateHomomorphismIds(q, db);
  std::vector<std::vector<ValueId>> answers;
  answers.reserve(ids.bindings.size());
  for (size_t h = 0; h < ids.bindings.size(); ++h) {
    answers.push_back(AnswerIds(ids, h));
  }
  return SortedDistinctAnswers(std::move(answers), db);
}

std::vector<Tuple> AnswersTouching(const ConjunctiveQuery& q,
                                   const Database& db, FactId fact) {
  SHAPCQ_CHECK(db.live(fact));
  const RelationId relation = db.fact_relation(fact);
  std::vector<std::vector<ValueId>> answers;
  for (size_t atom_index = 0; atom_index < q.atoms().size(); ++atom_index) {
    if (db.relation_id(q.atoms()[atom_index].relation) != relation) {
      continue;
    }
    IdJoin join(q, db);
    join.Pin(atom_index, fact);
    IdHomomorphisms ids = join.Run();
    for (size_t h = 0; h < ids.bindings.size(); ++h) {
      answers.push_back(AnswerIds(ids, h));
    }
  }
  return SortedDistinctAnswers(std::move(answers), db);
}

SubsetEvaluator::SubsetEvaluator(const ConjunctiveQuery& q,
                                 const Database& db) {
  players_ = db.EndogenousFacts();
  num_players_ = static_cast<int>(players_.size());
  SHAPCQ_CHECK(num_players_ <= 62 &&
               "SubsetEvaluator is for brute-force-sized instances");
  player_index_.assign(static_cast<size_t>(db.num_facts()), -1);
  for (int i = 0; i < num_players_; ++i) {
    player_index_[static_cast<size_t>(players_[static_cast<size_t>(i)])] = i;
  }
  for (AnswerHomomorphisms& group : GroupHomomorphismsByAnswer(q, db)) {
    std::vector<uint64_t> masks;
    for (const std::vector<FactId>& used : group.used_facts) {
      uint64_t mask = 0;
      for (FactId fact_id : used) {
        int player = player_index_[static_cast<size_t>(fact_id)];
        if (player >= 0) mask |= uint64_t{1} << player;
      }
      masks.push_back(mask);
    }
    // Keep only minimal masks (drop supersets) to speed up subset checks.
    std::sort(masks.begin(), masks.end(),
              [](uint64_t a, uint64_t b) {
                int pa = __builtin_popcountll(a);
                int pb = __builtin_popcountll(b);
                return pa != pb ? pa < pb : a < b;
              });
    std::vector<uint64_t> minimal;
    for (uint64_t mask : masks) {
      bool dominated = false;
      for (uint64_t kept : minimal) {
        if ((kept & mask) == kept) {
          dominated = true;
          break;
        }
      }
      if (!dominated) minimal.push_back(mask);
    }
    answers_.push_back(
        AnswerInfo{std::move(group.answer), std::move(minimal)});
  }
}

int SubsetEvaluator::PlayerIndex(FactId id) const {
  SHAPCQ_CHECK(id >= 0 && id < static_cast<FactId>(player_index_.size()));
  return player_index_[static_cast<size_t>(id)];
}

std::vector<Tuple> SubsetEvaluator::AnswersFor(uint64_t mask) const {
  std::vector<Tuple> out;
  for (const AnswerInfo& info : answers_) {
    for (uint64_t support : info.supports) {
      if ((support & mask) == support) {
        out.push_back(info.answer);
        break;
      }
    }
  }
  return out;
}

}  // namespace shapcq
