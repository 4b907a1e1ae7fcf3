// Embedding analysis — the paper's §3.2 punchline made concrete:
// "For the ComplEx model, instead of using a complex-valued embedding
// vector, we can treat it as two real-valued embedding vectors. ...
// multiple embedding vectors can be concatenated to form a longer vector
// for use in visualization and data analysis."
//
// This example trains ComplEx on a WordNet-like graph, concatenates each
// entity's two embedding vectors into one real feature vector, and uses
// plain cosine nearest-neighbour search to show that taxonomy siblings
// end up close in embedding space — no complex arithmetic needed
// downstream.
//
// Run:  ./embedding_analysis [--entities=N] [--epochs=N]
#include <algorithm>
#include <cstdio>

#include "kge.h"

namespace {

using namespace kge;

double Cosine(std::span<const float> a, std::span<const float> b) {
  const double denom = Norm(a) * Norm(b);
  return denom == 0.0 ? 0.0 : Dot(a, b) / denom;
}

int Run(int argc, char** argv) {
  int64_t entities = 600;
  int64_t epochs = 150;
  FlagParser parser(
      "embedding_analysis: multi-embeddings as plain real feature vectors");
  parser.AddInt("entities", &entities, "entities in the generated KG");
  parser.AddInt("epochs", &epochs, "training epochs");
  const Status status = parser.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  KGE_CHECK_OK(status);

  WordNetLikeOptions generator;
  generator.num_entities = int32_t(entities);
  generator.seed = 21;
  Dataset data = GenerateWordNetLike(generator);
  std::printf("dataset: %s\n", data.StatsString().c_str());

  auto model = MakeComplEx(data.num_entities(), data.num_relations(),
                           /*dim=*/32, /*seed=*/3);
  TrainerOptions options;
  options.max_epochs = int(epochs);
  options.batch_size = 1024;
  Trainer trainer(model.get(), options);
  KGE_CHECK_OK(trainer.Train(data.train, nullptr).status());

  // The multi-embedding view: EmbeddingStore::Of(e) is already the
  // concatenation [Re(e); Im(e)] — a flat real vector usable by any
  // downstream tool.
  const EmbeddingStore& store = model->entity_store();
  std::printf("each entity's feature vector: %d vectors x %d dims = %d "
              "real features\n",
              store.num_vectors(), store.dim(),
              store.num_vectors() * store.dim());

  // Pick a parent with several children in the taxonomy; check siblings
  // cluster: mean cosine among siblings vs among random entity pairs.
  // A parent's children are the heads of its training hypernym triples,
  // in training order.
  std::vector<std::vector<EntityId>> children(size_t(data.num_entities()));
  for (const Triple& t : data.train) {
    if (t.relation == kHypernym) children[size_t(t.tail)].push_back(t.head);
  }
  EntityId best_parent = -1;
  std::vector<EntityId> siblings;
  for (EntityId e = 0; e < data.num_entities(); ++e) {
    if (children[size_t(e)].size() > siblings.size()) {
      siblings = children[size_t(e)];
      best_parent = e;
    }
  }
  KGE_CHECK(best_parent >= 0 && siblings.size() >= 3);
  if (siblings.size() > 10) siblings.resize(10);

  double sibling_cosine = 0.0;
  int sibling_pairs = 0;
  for (size_t a = 0; a < siblings.size(); ++a) {
    for (size_t b = a + 1; b < siblings.size(); ++b) {
      sibling_cosine += Cosine(store.Of(siblings[a]), store.Of(siblings[b]));
      ++sibling_pairs;
    }
  }
  sibling_cosine /= sibling_pairs;

  Rng rng(17);
  double random_cosine = 0.0;
  const int kRandomPairs = 500;
  for (int pair = 0; pair < kRandomPairs; ++pair) {
    const auto a = EntityId(rng.NextBounded(uint64_t(data.num_entities())));
    const auto b = EntityId(rng.NextBounded(uint64_t(data.num_entities())));
    random_cosine += Cosine(store.Of(a), store.Of(b));
  }
  random_cosine /= kRandomPairs;

  std::printf("\nparent %s has %zu sampled children (taxonomy siblings)\n",
              data.entities.NameOf(best_parent).c_str(), siblings.size());
  std::printf("mean cosine among siblings     : %+.3f\n", sibling_cosine);
  std::printf("mean cosine among random pairs : %+.3f\n", random_cosine);
  std::printf("=> siblings are %s in the concatenated embedding space\n",
              sibling_cosine > random_cosine + 0.05 ? "clustered"
                                                    : "not clearly clustered");

  // Nearest neighbours of one sibling, by cosine over concatenated
  // embeddings.
  const EntityId probe = siblings[0];
  std::vector<std::pair<double, EntityId>> neighbours;
  for (EntityId e = 0; e < data.num_entities(); ++e) {
    if (e == probe) continue;
    neighbours.push_back({Cosine(store.Of(probe), store.Of(e)), e});
  }
  std::partial_sort(neighbours.begin(), neighbours.begin() + 5,
                    neighbours.end(), std::greater<>());
  std::printf("\nnearest neighbours of %s:\n",
              data.entities.NameOf(probe).c_str());
  for (int k = 0; k < 5; ++k) {
    std::printf("  %d. %-10s cosine %+.3f\n", k + 1,
                data.entities.NameOf(neighbours[size_t(k)].second).c_str(),
                neighbours[size_t(k)].first);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
