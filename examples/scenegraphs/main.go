// Scene graphs: CATAPULT is domain independent (Sec 1: "any
// domain-specific graph querying application (e.g., drug discovery,
// computer vision)"). This example mines canned patterns from a corpus of
// computer-vision-style scene graphs — objects as vertices, spatial/
// semantic relations as edges — instead of molecules.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	catapult "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
)

// object vocabulary and typical co-occurrence templates for synthetic
// scenes (street scenes, room scenes, park scenes).
var sceneTemplates = []struct {
	name    string
	objects []string
}{
	{"street", []string{"car", "road", "person", "light", "sign", "building"}},
	{"room", []string{"table", "chair", "person", "lamp", "laptop", "wall"}},
	{"park", []string{"tree", "person", "dog", "bench", "path", "grass"}},
}

// generateScene builds one scene graph: a hub object (the scene's ground:
// road/wall/grass) connected to several objects, plus object-object
// relations.
func generateScene(rng *rand.Rand) *graph.Graph {
	tpl := sceneTemplates[rng.Intn(len(sceneTemplates))]
	g := graph.New(12, 16)
	ground := g.AddVertex(tpl.objects[len(tpl.objects)-1]) // building/wall/grass
	n := 5 + rng.Intn(5)
	var objs []graph.VertexID
	for i := 0; i < n; i++ {
		v := g.AddVertex(tpl.objects[rng.Intn(len(tpl.objects)-1)])
		g.MustAddEdge(ground, v) // "on"/"in" relation to the scene ground
		objs = append(objs, v)
	}
	// Sparse object-object relations ("next to", "holding", ...).
	for i := 0; i+1 < len(objs); i += 2 {
		if !g.HasEdge(objs[i], objs[i+1]) {
			g.MustAddEdge(objs[i], objs[i+1])
		}
	}
	return g
}

func main() {
	rng := rand.New(rand.NewSource(41))
	scenes := make([]*graph.Graph, 150)
	for i := range scenes {
		scenes[i] = generateScene(rng)
	}
	db := graph.NewDB("scenes", scenes)
	fmt.Printf("scene corpus: %s\n\n", db.ComputeStats())

	res, err := catapult.SelectCtx(context.Background(), db, catapult.Config{
		Budget:     core.Budget{EtaMin: 3, EtaMax: 6, Gamma: 8},
		Clustering: cluster.Config{Strategy: cluster.HybridMCCS, N: 20, MinSupport: 0.1},
		Seed:       43,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("canned patterns for the scene-query GUI (%d):\n", len(res.Patterns))
	for i, p := range res.Patterns {
		fmt.Printf("%2d. score=%.4f cog=%.2f  %v\n", i+1, p.Score, p.Cog, p.Graph)
	}
}
