// Recommender system on a knowledge graph — the paper's §1 motivating
// application: "a knowledge graph for recommender systems would have
// triples such as (UserA, Item1, review) and (UserB, Item2, like)", and
// link prediction fills in the missing (user, item, like) triples.
//
// This example synthesizes a user-item-category graph with community
// structure (users belong to taste clusters; items belong to genres;
// users like items of their cluster's genres), trains the CPh model, and
// produces top-k recommendations for a user, measuring recall on
// held-out likes.
//
// Run:  ./recommender [--users=N] [--items=N]
#include <algorithm>
#include <cstdio>

#include "kge.h"

namespace {

using namespace kge;

struct RecommenderData {
  Dataset data;
  RelationId like = 0;
  RelationId belongs_to_genre = 0;
  RelationId follows = 0;
  std::vector<Triple> held_out_likes;
  int num_users = 0;
  int num_items = 0;
};

RecommenderData BuildData(int num_users, int num_items, int num_genres,
                          uint64_t seed) {
  RecommenderData rec;
  rec.num_users = num_users;
  rec.num_items = num_items;
  rec.like = rec.data.relations.GetOrAdd("like");
  rec.belongs_to_genre = rec.data.relations.GetOrAdd("belongs_to_genre");
  rec.follows = rec.data.relations.GetOrAdd("follows");

  Rng rng(seed);
  std::vector<EntityId> users, items, genres;
  for (int u = 0; u < num_users; ++u)
    users.push_back(rec.data.entities.GetOrAdd(StrFormat("user_%04d", u)));
  for (int i = 0; i < num_items; ++i)
    items.push_back(rec.data.entities.GetOrAdd(StrFormat("item_%04d", i)));
  for (int g = 0; g < num_genres; ++g)
    genres.push_back(rec.data.entities.GetOrAdd(StrFormat("genre_%02d", g)));

  // Each item belongs to one genre; each user has two preferred genres.
  std::vector<int> item_genre(static_cast<size_t>(num_items));
  for (int i = 0; i < num_items; ++i) {
    item_genre[size_t(i)] = int(rng.NextBounded(uint64_t(num_genres)));
    rec.data.train.push_back(
        {items[size_t(i)], genres[size_t(item_genre[size_t(i)])],
         rec.belongs_to_genre});
  }
  std::vector<std::pair<int, int>> user_tastes(
      static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) {
    user_tastes[size_t(u)] = {int(rng.NextBounded(uint64_t(num_genres))),
                              int(rng.NextBounded(uint64_t(num_genres)))};
  }
  // Users follow users with a shared taste (social structure).
  for (int u = 0; u < num_users; ++u) {
    for (int trial = 0; trial < 3; ++trial) {
      const int v = int(rng.NextBounded(uint64_t(num_users)));
      if (v == u) continue;
      if (user_tastes[size_t(u)].first == user_tastes[size_t(v)].first) {
        rec.data.train.push_back(
            {users[size_t(u)], users[size_t(v)], rec.follows});
      }
    }
  }
  // Likes: mostly within preferred genres; hold out ~20% for evaluation.
  for (int u = 0; u < num_users; ++u) {
    const auto [taste_a, taste_b] = user_tastes[size_t(u)];
    int likes = 0;
    for (int trial = 0; trial < num_items && likes < 12; ++trial) {
      const int i = int(rng.NextBounded(uint64_t(num_items)));
      const int genre = item_genre[size_t(i)];
      const bool preferred = genre == taste_a || genre == taste_b;
      if (!preferred && !rng.NextBool(0.05)) continue;
      const Triple triple{users[size_t(u)], items[size_t(i)], rec.like};
      ++likes;
      if (likes % 5 == 0) {
        rec.held_out_likes.push_back(triple);
      } else {
        rec.data.train.push_back(triple);
      }
    }
  }
  rec.data.test = rec.held_out_likes;
  return rec;
}

int Run(int argc, char** argv) {
  int64_t num_users = 300;
  int64_t num_items = 400;
  int64_t epochs = 150;
  FlagParser parser("recommender: KG-embedding recommendations (paper §1)");
  parser.AddInt("users", &num_users, "number of users");
  parser.AddInt("items", &num_items, "number of items");
  parser.AddInt("epochs", &epochs, "training epochs");
  const Status status = parser.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  KGE_CHECK_OK(status);

  RecommenderData rec =
      BuildData(int(num_users), int(num_items), /*num_genres=*/8, 13);
  std::printf("recommender KG: %s\n", rec.data.StatsString().c_str());

  auto model = MakeCph(rec.data.num_entities(), rec.data.num_relations(),
                       /*dim=*/32, /*seed=*/5);
  TrainerOptions options;
  options.max_epochs = int(epochs);
  options.batch_size = 512;
  options.learning_rate = 0.02;
  Trainer trainer(model.get(), options);
  KGE_CHECK_OK(trainer.Train(rec.data.train, nullptr).status());

  // Recall@20 over held-out likes: does the liked item appear in the
  // user's top-20 recommendations (excluding items already liked)?
  FilterIndex filter;
  filter.Build(rec.data.train, rec.data.valid, rec.data.test);
  Evaluator evaluator(&filter, rec.data.num_relations());
  EvalOptions eval_options;
  const RankingMetrics metrics =
      evaluator.EvaluateOverall(*model, rec.held_out_likes, eval_options);
  std::printf("held-out like prediction: %s\n", metrics.ToString().c_str());

  // Show recommendations for one user.
  const EntityId user = rec.data.entities.Find("user_0000");
  std::vector<float> scores(size_t(rec.data.num_entities()));
  model->ScoreAll(QuerySide::kTail, user, rec.like, scores);
  // Exclude non-items and already-liked items.
  std::vector<std::pair<float, EntityId>> ranked;
  const auto known = filter.Known(QuerySide::kTail, user, rec.like);
  for (EntityId e = 0; e < rec.data.num_entities(); ++e) {
    const std::string& name = rec.data.entities.NameOf(e);
    if (name.rfind("item_", 0) != 0) continue;
    if (std::binary_search(known.begin(), known.end(), e)) continue;
    ranked.push_back({scores[size_t(e)], e});
  }
  std::partial_sort(ranked.begin(),
                    ranked.begin() +
                        std::ptrdiff_t(std::min<size_t>(5, ranked.size())),
                    ranked.end(), std::greater<>());
  std::printf("\ntop-5 new recommendations for user_0000:\n");
  for (size_t k = 0; k < 5 && k < ranked.size(); ++k) {
    std::printf("  %zu. %-12s score %.3f\n", k + 1,
                rec.data.entities.NameOf(ranked[k].second).c_str(),
                ranked[k].first);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
