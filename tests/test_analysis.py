from prooftalk import analysis


def test_segments_each_dialogue_once(corpus, monkeypatch):
    calls = []
    segment = analysis.segment_moves

    def counted(moves, *args):
        calls.append(moves)
        return segment(moves, *args)

    monkeypatch.setattr(analysis, "segment_moves", counted)
    doc = corpus["shift_illicit"][1]
    analysis.analyze_document(doc)
    assert calls == [doc.dialogues[n].moves for n in sorted(doc.dialogues)]
